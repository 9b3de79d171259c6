package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gazetteer"
	"repro/internal/record"
	"repro/internal/server"
)

// TestMain lets run re-execute the test binary as the measured child.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		if err := runChild(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tinyScale shrinks every corpus and the training preset, and moves the
// benchmark's files into a temporary directory, for the test's duration.
func tinyScale(t *testing.T) {
	t.Helper()
	oldSizes, oldPreset, oldDir := workloadSize, presetConfig, buildDir
	workloadSize = map[string]int{"resolve_lists": 900, "serve_italy": 0}
	presetConfig = func() dataset.Config {
		c := dataset.ItalyConfig()
		c.Persons = 300
		return c
	}
	buildDir = filepath.Join(t.TempDir(), "build")
	t.Cleanup(func() { workloadSize, presetConfig, buildDir = oldSizes, oldPreset, oldDir })
}

// benchmarkJSON is the part of BENCHMARK.json the tests compare against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the benchmark reports %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end[%d] = %s %s, benchmark reports %s %s", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per_layer[%d] = %s %s, benchmark reports %s %s", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
	for _, w := range b.Workloads {
		if _, ok := workloadSize[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown to the benchmark", w.Name)
		}
	}
}

// TestEveryMetricPrintedWithUnit runs every workload, untraced and
// traced, at tiny sizes through the same parent and child processes the
// benchmark uses, and checks the result line.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("resolves several tiny corpora")
	}
	tinyScale(t)
	for _, w := range []string{"resolve_lists", "serve_italy"} {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			if err := run(&out, w, 3, 1, traced); err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line: %v", w, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				got, ok := res.Metrics[s.Name]
				if !ok || got.Value == nil || got.Unit != s.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want a value in %s", w, traced, s.Name, got, s.Unit)
				}
			}
			var meta struct {
				Meta map[string]any
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-2]), &meta); err != nil {
				t.Fatalf("%s: meta line: %v", w, err)
			}
			for _, k := range []string{"commit", "dirty", "go_version", "gomaxprocs", "nproc", "seed", "fingerprint"} {
				if _, ok := meta.Meta[k]; !ok {
					t.Errorf("%s: meta lacks %s", w, k)
				}
			}
		}
	}
}

// TestCorpusFingerprintStable generates each seeded corpus twice with a
// generation of another size in between; the bytes must not change.
func TestCorpusFingerprintStable(t *testing.T) {
	dir := t.TempDir()
	for _, gen := range []struct {
		name string
		fn   func(seed int64, n int) (*corpus, error)
	}{{"lists", listsCorpus}, {"testimony", testimonyCorpus}} {
		fp := func(n int, tag string) string {
			c, err := gen.fn(42, n)
			if err != nil {
				t.Fatal(err)
			}
			if len(c.Records) != n {
				t.Fatalf("%s: %d records, want %d", gen.name, len(c.Records), n)
			}
			f, err := c.write(filepath.Join(dir, tag+".yvst"), filepath.Join(dir, tag+".gold"))
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		first := fp(700, gen.name+"-a")
		other := fp(1100, gen.name+"-b")
		second := fp(700, gen.name+"-c")
		if first != second {
			t.Errorf("%s: fingerprint %s then %s for the same seed", gen.name, first, second)
		}
		if first == other {
			t.Errorf("%s: two sizes share fingerprint %s", gen.name, first)
		}
	}
}

// tinyResolution resolves a small Italy corpus without a model.
func tinyResolution(t *testing.T) *core.Resolution {
	t.Helper()
	c, err := testimonyCorpus(5, 400)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := record.NewCollection(c.Records)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.NewOptions(gazetteer.Builtin(c.TownsPerCounty))
	opts.Classify = false
	res, err := core.Run(opts, coll)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) < 2 {
		t.Fatalf("only %d matches", len(res.Matches))
	}
	return res
}

func TestCorruptedMatchesTripCheck(t *testing.T) {
	res := tinyResolution(t)
	want := ""
	if err := checkResolution(res, res.Collection.Len(), &want); err != nil {
		t.Fatal(err)
	}
	res.Matches[1].Score = res.Matches[0].Score + 1
	if err := checkResolution(res, res.Collection.Len(), &want); err == nil {
		t.Error("a changed match score passed the check")
	}
	res.Matches = res.Matches[1:]
	if err := checkResolution(res, res.Collection.Len(), &want); err == nil {
		t.Error("a dropped match passed the check")
	}
	if err := checkResolution(res, res.Collection.Len()+1, new(string)); err == nil {
		t.Error("a missing record passed the check")
	}
}

func TestCorruptedResponseTripsCheck(t *testing.T) {
	res := tinyResolution(t)
	srv := server.New(res, res.Collection)
	pool := newQueryPool(res, srv.DefaultCertainty)
	reqs := pool.plan(rand.New(rand.NewSource(1)), counts{search: 20, entity: 10, narrative: 10, pair: 10, sweep: 10})
	outs := openLoop(srv, reqs, time.Minute) // every request due at once
	seen := map[string]bool{}
	for _, o := range outs {
		if err := checkAnswer(res, o); err != nil {
			t.Fatalf("a correct answer failed the check: %v", err)
		}
		kind := strings.SplitN(strings.TrimPrefix(o.req.path, "/api/"), "?", 2)[0]
		if seen[kind] {
			continue
		}
		seen[kind] = true
		bad := o
		switch kind {
		case "search":
			bad.body = bytes.Replace(o.body, []byte(o.req.last), []byte("Nobody"), -1)
		case "entity", "narrative":
			bad.req = &request{path: o.req.path, book: -1}
		case "pair":
			bad.req = &request{path: o.req.path, score: o.req.score + 1}
		case "stats":
			bad.body = bytes.Replace(o.body, []byte(`"entities": `), []byte(`"entities": 1`), 1)
		}
		if err := checkAnswer(res, bad); err == nil {
			t.Errorf("a corrupted %s answer passed the check", kind)
		}
		bad = o
		bad.code = 503
		if err := checkAnswer(res, bad); err == nil {
			t.Errorf("a 503 %s answer passed the check", kind)
		}
	}
	for _, k := range []string{"search", "entity", "narrative", "pair", "stats"} {
		if !seen[k] {
			t.Errorf("no %s request in the plan", k)
		}
	}
}

// TestUnmeasuredMetricMakesRunIncorrect: when every request of a latency
// class fails, the class has no latency; the result line is still
// printed, marked incorrect, with the failure counts.
func TestUnmeasuredMetricMakesRunIncorrect(t *testing.T) {
	child := &childResult{Metrics: map[string]float64{}, Attempted: 10, Failed: 4}
	for _, s := range endToEnd {
		child.Metrics[s.Name] = 1
	}
	delete(child.Metrics, "sweep_p50_ms")
	res := resultOf(child, false)
	if res.Correct || res.Attempted != 10 || res.Failed != 4 {
		t.Errorf("correct=%v attempted=%d failed=%d, want false 10 4", res.Correct, res.Attempted, res.Failed)
	}
	if _, ok := res.Metrics["sweep_p50_ms"]; ok || len(res.Metrics) != len(endToEnd)-1 {
		t.Errorf("metrics %v: want every measured one and no sweep_p50_ms", res.Metrics)
	}
}
