package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/adtree"
	"repro/internal/core"
	"repro/internal/gazetteer"
	"repro/internal/narrative"
	"repro/internal/record"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// childSpec is what the parent hands the measured process: the inputs
// it wrote and how to measure them.
type childSpec struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
	Store       string  `json:"store"`
	Gold        string  `json:"gold"`
	Fingerprint string  `json:"fingerprint"`
	Records     int     `json:"records"`
	Towns       int     `json:"towns"`
	Model       string  `json:"model"`
	Workers     int     `json:"workers"`
	// HalfStore holds a corpus of the same shape and half the size; the
	// traced run resolves it to fit the blocking exponent.
	HalfStore string `json:"half_store,omitempty"`
	// TraceOut receives the traced run's Chrome trace-event JSON.
	TraceOut string `json:"trace_out,omitempty"`
}

// childResult is what the measured process prints on stdout.
type childResult struct {
	Fingerprint string             `json:"fingerprint"`
	GoMaxProcs  int                `json:"gomaxprocs"`
	GoVersion   string             `json:"go_version"`
	Metrics     map[string]float64 `json:"metrics"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
}

// tally counts operations and keeps the first few failures.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(err error) {
	t.attempted++
	t.failed++
	if len(t.failures) < 10 {
		t.failures = append(t.failures, err.Error())
	}
}

func (t *tally) check(err error) {
	if err != nil {
		t.fail(err)
	} else {
		t.ok()
	}
}

// Per-run repetition counts. Each workload first resolves a fixed
// number of times, then sends query traffic for the run's seconds.
const (
	// setupReps of the cheap streaming set-up (open the store, load the
	// model, build the gazetteer) give its median; the serve set-up
	// resolves the corpus, so it is repeated serveSetupReps times.
	setupReps      = 201
	serveSetupReps = 3
	// listsResolves measured streaming resolutions give resolve_s.
	listsResolves = 3
)

// Query traffic rates, in requests per second. Both are assumptions.
// Slider moves cost about 0.2 s on the serve corpus and 0.85 s on the
// larger streaming corpus; at these rates they keep one of two cores
// busy about 30% and 25% of the time, so most other requests see
// service time rather than a wait behind a slider move.
const (
	serveRate = 32
	listsRate = 6
)

// pipeline runs the one configuration a user runs: library defaults
// (core.NewOptions), the trained model, Workers = nproc, and for the
// streaming workload a spill cap.
type pipeline struct {
	spec   *childSpec
	gaz    *gazetteer.Gazetteer
	model  *adtree.Model
	stream bool
}

// spillCap holds the streaming run's candidate pairs a few times below
// its candidate count, so candidates spill to sorted runs on disk.
const spillCap = 1 << 15

func (p *pipeline) options(tr *trace.Tracer) core.Options {
	opts := core.NewOptions(p.gaz)
	opts.Model = p.model
	opts.Workers = p.spec.Workers
	opts.Trace = tr
	return opts
}

// resolve resolves the store at path: streamed through core.RunStream
// from a window reader, or, for the serve workload, in memory through
// core.Run over coll. The
// time covers opening the record source to the ranked Resolution.
func (p *pipeline) resolve(path string, coll *record.Collection, tr *trace.Tracer) (*core.Resolution, time.Duration, error) {
	runtime.GC() // start every resolution from a collected heap
	t0 := time.Now()
	if !p.stream {
		res, err := core.Run(p.options(tr), coll)
		return res, time.Since(t0), err
	}
	src, err := store.OpenWindowReader(path)
	if err != nil {
		return nil, 0, err
	}
	defer src.Close()
	opts := core.StreamOptions{Options: p.options(tr), RetainRecords: true} // model scoring needs the records
	opts.Blocking.SpillPairs = spillCap
	res, err := core.RunStream(opts, src)
	return res, time.Since(t0), err
}

// loadCollection reads a whole store into a collection.
func loadCollection(path string) (*record.Collection, error) {
	s, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	recs, err := s.All()
	if err != nil {
		return nil, err
	}
	return record.NewCollection(recs)
}

// matchesFingerprint hashes the ranked matches: pair, score and block
// score in rank order.
func matchesFingerprint(ms []core.RankedMatch) string {
	h := sha256.New()
	var buf [32]byte
	for _, m := range ms {
		binary.LittleEndian.PutUint64(buf[0:], uint64(m.Pair.A))
		binary.LittleEndian.PutUint64(buf[8:], uint64(m.Pair.B))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(m.Score))
		binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(m.BlockScore))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// pairQuality is the share of gold intra-entity pairs among the matches
// (recall) and of matches that are gold intra-entity pairs (precision).
func pairQuality(ms []core.RankedMatch, gold map[int64]int64) (recall, precision float64) {
	size := map[int64]int{}
	for _, e := range gold {
		size[e]++
	}
	truePairs := 0
	for _, n := range size {
		truePairs += n * (n - 1) / 2
	}
	tp := 0
	for _, m := range ms {
		if ea, ok := gold[m.Pair.A]; ok && ea == gold[m.Pair.B] {
			tp++
		}
	}
	return ratio(float64(tp), float64(truePairs)), ratio(float64(tp), float64(len(ms)))
}

// runChild is the measured process: it reads the spec, measures the
// workload and prints its childResult as JSON on stdout.
func runChild(specPath string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return fmt.Errorf("child: %w", err)
	}
	var spec childSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("child: spec: %w", err)
	}
	out := childResult{GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Metrics: map[string]float64{}}
	var t tally

	// The corpus the child reads must be the one the parent generated.
	fp, err := fingerprint(spec.Store, spec.Gold)
	if err != nil {
		return err
	}
	out.Fingerprint = fp
	if fp != spec.Fingerprint {
		t.fail(fmt.Errorf("corpus fingerprint %s, parent wrote %s", fp, spec.Fingerprint))
	} else {
		t.ok()
	}
	gold, err := readGold(spec.Gold)
	if err != nil {
		return err
	}
	p := &pipeline{spec: &spec, stream: spec.Workload == "resolve_lists"}
	if spec.Workload == "serve_italy" {
		err = measureServe(p, gold, &t, out.Metrics)
	} else {
		err = measureResolve(p, gold, &t, out.Metrics)
	}
	if err != nil {
		return err
	}
	out.Attempted, out.Failed, out.Failures = t.attempted, t.failed, t.failures
	out.Metrics["error_rate"] = ratio(float64(t.failed), float64(t.attempted))
	out.Metrics["success_rate"] = 1 - out.Metrics["error_rate"]
	for k, v := range out.Metrics {
		if math.IsNaN(v) { // a class without passing samples: the parent reports the run incorrect
			delete(out.Metrics, k)
		}
	}
	return json.NewEncoder(os.Stdout).Encode(&out)
}

// gcDelta reports the allocation and collection work between two
// MemStats readings, per resolution, leaving out forced collections.
func gcDelta(before, after *runtime.MemStats, n int, m map[string]float64) {
	m["runtime.alloc_bytes"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	m["runtime.gc_cycles"] = float64((after.NumGC-before.NumGC)-(after.NumForcedGC-before.NumForcedGC)) / float64(n)
}

// measureResolve measures the streaming workload: set-up (open the
// store, load the model, build the gazetteer), listsResolves
// resolutions, then the query traffic over the last resolution for the
// run's seconds. A traced run then adds traceLayers.
func measureResolve(p *pipeline, gold map[int64]int64, t *tally, m map[string]float64) error {
	spec := p.spec
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC() // every set-up starts from a collected heap, as every resolution does
		t0 := time.Now()
		src, err := store.OpenWindowReader(spec.Store)
		if err != nil {
			return err
		}
		src.Close()
		model, err := loadModel(spec.Model)
		if err != nil {
			return err
		}
		p.model, p.gaz = model, gazetteer.Builtin(spec.Towns)
		setups = append(setups, time.Since(t0).Seconds())
	}
	m["setup_s"] = median(setups)

	var res *core.Resolution
	var times []float64
	want := ""
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < listsResolves; i++ {
		res = nil
		r, d, err := p.resolve(spec.Store, nil, nil)
		if err != nil {
			return fmt.Errorf("resolve: %w", err)
		}
		res = r
		times = append(times, d.Seconds())
		t.check(checkResolution(res, spec.Records, &want))
	}
	runtime.ReadMemStats(&after)
	gcDelta(&before, &after, len(times), m)
	m["resolve_s"] = median(times)
	m["pair_recall"], m["pair_precision"] = pairQuality(res.Matches, gold)

	srv := server.New(res, res.Collection)
	pool := newQueryPool(res, srv.DefaultCertainty)
	runtime.GC() // the traffic starts from a collected heap, as each resolution does
	if err := warm(srv, pool); err != nil {
		t.fail(err)
	}
	window := time.Duration(spec.Seconds * float64(time.Second))
	trafficMetrics(res, traffic(srv, pool, spec.Seed, listsRate, window), t, m)
	m["server.shed"] = serverCounter(telemetry.FamilyHTTPShed)
	m["server.timeouts"] = serverCounter(telemetry.FamilyHTTPTimeouts)

	if !spec.Trace {
		return nil
	}
	return traceLayers(p, res, res.Collection, srv, pool, &want, m["resolve_s"], t, m)
}

// checkResolution checks one resolution: every record resolved, and the
// same ranked matches as the first resolution of the run.
func checkResolution(res *core.Resolution, records int, want *string) error {
	if res.Report.Records != records {
		return fmt.Errorf("resolved %d records, corpus has %d", res.Report.Records, records)
	}
	fp := matchesFingerprint(res.Matches)
	if *want == "" {
		*want = fp
	}
	if fp != *want {
		return fmt.Errorf("matches fingerprint %s differs from the run's first resolution %s", fp, *want)
	}
	return nil
}

// measureServe measures the serve workload: set-up is what yvserve pays
// before it listens (load the records and model, build the gazetteer,
// resolve, server.New), repeated for its median; then an open loop of
// independent users for the run's seconds. A traced run then adds
// traceLayers.
func measureServe(p *pipeline, gold map[int64]int64, t *tally, m map[string]float64) error {
	spec := p.spec
	var setups, resolves []float64
	var res *core.Resolution
	var coll *record.Collection
	var srv *server.Server
	want := ""
	for i := 0; i < serveSetupReps; i++ {
		res, srv, coll = nil, nil, nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if coll, err = loadCollection(spec.Store); err != nil {
			return err
		}
		if p.model, err = loadModel(spec.Model); err != nil {
			return err
		}
		p.gaz = gazetteer.Builtin(spec.Towns)
		r, d, err := p.resolve(spec.Store, coll, nil)
		if err != nil {
			return fmt.Errorf("resolve: %w", err)
		}
		res = r
		srv = server.New(res, coll)
		setups = append(setups, time.Since(t0).Seconds())
		resolves = append(resolves, d.Seconds())
		t.check(checkResolution(res, spec.Records, &want))
	}
	m["setup_s"] = median(setups)
	m["resolve_s"] = median(resolves)
	m["pair_recall"], m["pair_precision"] = pairQuality(res.Matches, gold)

	pool := newQueryPool(res, srv.DefaultCertainty)
	if err := warm(srv, pool); err != nil {
		t.fail(err)
	}
	window := time.Duration(spec.Seconds * float64(time.Second))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	outs := traffic(srv, pool, spec.Seed, serveRate, window)
	runtime.ReadMemStats(&after)
	trafficMetrics(res, outs, t, m)
	m["server.shed"] = serverCounter(telemetry.FamilyHTTPShed)
	m["server.timeouts"] = serverCounter(telemetry.FamilyHTTPTimeouts)

	if !spec.Trace {
		return nil
	}
	if err := traceLayers(p, res, coll, srv, pool, &want, m["resolve_s"], t, m); err != nil {
		return err
	}
	// The serve workload's allocation and GC work is the traffic's.
	gcDelta(&before, &after, 1, m)
	return nil
}

// traceLayers is the traced run's extra work: one traced resolution at
// full size (its RunReport and spans give the blocking, mining, spill
// and scoring layers), one at half size (the blocking exponent), and
// timed direct calls into core, narrative and server.
func traceLayers(p *pipeline, res *core.Resolution, served *record.Collection, srv *server.Server, pool *queryPool, want *string, untraced float64, t *tally, m map[string]float64) error {
	spec := p.spec
	clock := layerClock{}

	raw, err := loadCollection(spec.Store)
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		clock.time("core.PreprocessWith", func() {
			_, err := core.PreprocessWith(raw, p.gaz)
			t.check(err)
		})
	}
	m["core.preprocess_s"] = clock.median("core.PreprocessWith", time.Second)

	tr := trace.New()
	full, d, err := p.resolve(spec.Store, raw, tr)
	if err != nil {
		return fmt.Errorf("traced resolve: %w", err)
	}
	t.check(checkResolution(full, spec.Records, want))
	reportLayers(full.Report, m)
	m["trace.overhead_frac"] = d.Seconds()/untraced - 1
	if spec.TraceOut != "" {
		if err := tr.WriteChromeFile(spec.TraceOut); err != nil {
			return err
		}
	}
	full = nil

	var halfColl *record.Collection
	if !p.stream {
		if halfColl, err = loadCollection(spec.HalfStore); err != nil {
			return err
		}
	}
	half, _, err := p.resolve(spec.HalfStore, halfColl, trace.New())
	if err != nil {
		return fmt.Errorf("half-size resolve: %w", err)
	}
	halfBlocking := 0.0
	for _, st := range half.Report.Stages {
		if st.Name == "blocking" {
			halfBlocking = float64(st.DurationNS) / 1e9
		}
	}
	m["mfiblocks.blocking_exponent"] = math.Log(m["mfiblocks.blocking_s"]/halfBlocking) /
		math.Log(float64(spec.Records)/float64(half.Report.Records))
	half = nil

	// core queries and narrative, called directly on the served resolution.
	rng := rand.New(rand.NewSource(subSeed(spec.Seed, 200)))
	theta := pool.def // warmed: every popular certainty is cached
	for i := 0; i < 3; i++ {
		fresh := pool.sweepLo + (pool.sweepHi-pool.sweepLo)*rng.Float64()
		clock.time("core.Clusters", func() { res.Clusters(fresh) })
	}
	m["core.clusters_fresh_ms"] = clock.median("core.Clusters", time.Millisecond)
	nb := &narrative.Builder{Coll: served}
	for i := 0; i < 50; i++ {
		last := pool.surnames[rng.Intn(len(pool.surnames))]
		clock.time("core.Search", func() { res.Search(core.Query{Last: last, Certainty: theta}) })
		book := pool.books[rng.Intn(len(pool.books))]
		var ent *core.Entity
		clock.time("core.EntityOf", func() { ent, _ = res.EntityOf(book, theta) })
		if ent != nil {
			clock.time("narrative.Build", func() { nb.Build("", ent.Reports) })
		}
		// The pair is scored once untimed, so the direct call and the
		// request below both find its record profiles built.
		mt := pool.matches[rng.Intn(len(pool.matches))]
		res.ScorePair(mt.Pair.A, mt.Pair.B)
		clock.time("core.ScorePair", func() { res.ScorePair(mt.Pair.A, mt.Pair.B) })
		r := &request{class: classLookup, path: fmt.Sprintf("/api/pair?a=%d&b=%d", mt.Pair.A, mt.Pair.B), score: mt.Score}
		var o outcome
		clock.time("server.ServeHTTP", func() { o = doRequest(srv, r, time.Now(), 0) })
		t.check(checkAnswer(res, o))
	}
	m["core.search_cached_ms"] = clock.median("core.Search", time.Millisecond)
	m["core.entity_of_us"] = clock.median("core.EntityOf", time.Microsecond)
	m["core.score_pair_us"] = clock.median("core.ScorePair", time.Microsecond)
	m["narrative.build_us"] = clock.median("narrative.Build", time.Microsecond)

	// server: the handler stack's cost on top of the direct core call
	// for the same pair requests.
	m["server.overhead_us"] = clock.median("server.ServeHTTP", time.Microsecond) - m["core.score_pair_us"]

	return nil
}
