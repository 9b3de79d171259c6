// Command yvperf is the repository's benchmark. It generates a seeded
// corpus for one workload, trains the match model, measures the
// resolution pipeline and its query server in a separate child process,
// checks every output, and prints the metrics.
//
// Usage, from the repository root:
//
//	bash yvperf/run.sh --workload resolve_lists --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//	resolve_lists  random-set shaped corpus (six communities, list heavy), streamed
//	serve_italy    the Italy preset resolved in set-up, then an open loop of queries
//
// With --trace 0 the last stdout line carries the end-to-end metrics,
// with --trace 1 the per-layer metrics of a traced run. The line before
// it stamps the run: commit and dirty flag, Go version, GOMAXPROCS,
// nproc, seed and corpus fingerprint.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir is where the benchmark keeps its binary, work files and
// traces, relative to the repository root.
var buildDir = ".bench_build/yvperf"

// workloadSize is each workload's corpus size in records; 0 is the Italy
// preset as defined.
var workloadSize = map[string]int{
	"resolve_lists": 40000,
	"serve_italy":   0,
}

func main() {
	workload := flag.String("workload", "", "resolve_lists or serve_italy")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same corpus and traffic")
	seconds := flag.Float64("seconds", 25, "how long the run measures")
	traced := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	child := flag.String("child", "", "measure the workload described by this spec file (internal)")
	flag.Parse()

	if *child != "" {
		if err := runChild(*child); err != nil {
			fmt.Fprintf(os.Stderr, "yvperf child: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if _, ok := workloadSize[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "yvperf: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "yvperf: need --seconds > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := run(os.Stdout, *workload, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintf(os.Stderr, "yvperf: %v\n", err)
		os.Exit(1)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run prepares the workload's inputs, measures them in a child process
// and prints the run's metadata and result.
func run(w io.Writer, workload string, seed int64, seconds float64, traced bool) error {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	spec, err := prepare(workload, seed, seconds, traced, work)
	if err != nil {
		return err
	}
	child, peakRSS, err := measure(spec, work)
	if err != nil {
		return err
	}
	for _, f := range child.Failures {
		fmt.Fprintf(os.Stderr, "yvperf: check failed: %s\n", f)
	}

	if all, err := json.Marshal(child.Metrics); err == nil {
		fmt.Fprintf(os.Stderr, "yvperf: all measurements: %s\n", all)
	}
	meta := runMeta(seed, child)
	line, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))

	child.Metrics["peak_rss_mib"] = float64(peakRSS) / (1 << 20)
	line, err = json.Marshal(resultOf(child, traced))
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// resultOf picks the reported metrics from the child's measurements.
// A metric the child could not measure, because every request of its
// latency class failed its check, is left out and makes the run
// incorrect.
func resultOf(child *childResult, traced bool) result {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	res := result{
		Correct:   child.Failed == 0,
		Attempted: child.Attempted,
		Failed:    child.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v, ok := child.Metrics[s.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "yvperf: metric %s was not measured\n", s.Name)
			res.Correct = false
			continue
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return res
}

// prepare generates the workload's corpus (and, traced, a half-size
// corpus of the same shape), trains the model, and writes the child's
// spec.
func prepare(workload string, seed int64, seconds float64, traced bool, work string) (*childSpec, error) {
	t0 := time.Now()
	spec := &childSpec{
		Workload: workload,
		Seed:     seed,
		Seconds:  seconds,
		Trace:    traced,
		Store:    filepath.Join(work, "corpus.yvst"),
		Gold:     filepath.Join(work, "corpus.gold"),
		Model:    filepath.Join(work, "model.json"),
		Workers:  runtime.NumCPU(),
	}
	italy, preset, err := italyPreset()
	if err != nil {
		return nil, err
	}
	// The serve workload's half-size corpus is Italy shaped, from the seed.
	gen := func(n int) (*corpus, error) {
		switch {
		case workload == "resolve_lists":
			return listsCorpus(seed, n)
		case n == len(preset.Records):
			return preset, nil
		}
		return testimonyCorpus(seed, n)
	}
	n := workloadSize[workload]
	if n == 0 {
		n = len(preset.Records)
	}
	c, err := gen(n)
	if err != nil {
		return nil, err
	}
	spec.Records, spec.Towns = len(c.Records), c.TownsPerCounty
	if spec.Fingerprint, err = c.write(spec.Store, spec.Gold); err != nil {
		return nil, err
	}
	if traced {
		h, err := gen(n / 2)
		if err != nil {
			return nil, err
		}
		spec.HalfStore = filepath.Join(work, "half.yvst")
		if _, err := h.write(spec.HalfStore, filepath.Join(work, "half.gold")); err != nil {
			return nil, err
		}
		tracesDir := filepath.Join(buildDir, "traces")
		if err := os.MkdirAll(tracesDir, 0o755); err != nil {
			return nil, err
		}
		spec.TraceOut = filepath.Join(tracesDir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	}
	model, err := trainModel(italy)
	if err != nil {
		return nil, err
	}
	if err := saveModel(model, spec.Model); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "yvperf: %s seed %d: %d records, fingerprint %s, prepared in %v\n",
		workload, seed, spec.Records, spec.Fingerprint, time.Since(t0).Round(time.Millisecond))
	data, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return spec, os.WriteFile(filepath.Join(work, "spec.json"), data, 0o644)
}

// measure runs the child on the spec with GOMAXPROCS = nproc and
// returns its result and peak RSS in bytes.
func measure(spec *childSpec, work string) (*childResult, int64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(self, "-child", filepath.Join(work, "spec.json"))
	cmd.Env = append(os.Environ(),
		"GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()),
		"TMPDIR="+work) // spill runs stay inside the work directory
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("child: %w", err)
	}
	var out childResult
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, 0, fmt.Errorf("child output: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, 0, errors.New("no rusage for the child")
	}
	return &out, maxrssBytes(ru.Maxrss), nil
}

// maxrssBytes converts getrusage's Maxrss to bytes: Linux reports KiB,
// darwin bytes.
func maxrssBytes(maxrss int64) int64 {
	if runtime.GOOS == "darwin" {
		return maxrss
	}
	return maxrss * 1024
}

// runMeta stamps the run with what it measured.
func runMeta(seed int64, child *childResult) map[string]any {
	commit, dirty := gitState()
	return map[string]any{
		"commit":      commit,
		"dirty":       dirty,
		"go_version":  child.GoVersion,
		"gomaxprocs":  child.GoMaxProcs,
		"nproc":       runtime.NumCPU(),
		"seed":        seed,
		"fingerprint": child.Fingerprint,
	}
}

// gitState is the full commit hash of the tree and whether its tracked
// files differ from that commit; "none" when the working directory is
// not the root of a git checkout.
func gitState() (string, bool) {
	if _, err := os.Stat(".git"); err != nil {
		return "none", false
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none", false
	}
	status, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	return strings.TrimSpace(string(out)), err != nil || len(bytes.TrimSpace(status)) > 0
}
