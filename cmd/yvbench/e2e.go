package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gazetteer"
	"repro/internal/mfiblocks"
	"repro/internal/record"
	"repro/internal/spill"
	"repro/internal/store"
	"repro/internal/telemetry/trace"
)

// rowTracePath derives the per-row trace file from the -e2e-trace-out
// base: multi-size runs suffix the record count before the extension so
// rows don't clobber each other.
func rowTracePath(base string, n int, multi bool) string {
	if !multi {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "-" + strconv.Itoa(n) + ext
}

// gitCommit stamps report rows with the full commit hash of the tree
// the benchmark ran from, suffixed "-dirty" when the working tree has
// uncommitted changes or its status cannot be read (the row may then
// have measured code no commit holds); empty (and omitted from the JSON) outside a git checkout or without
// git on PATH.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	commit := strings.TrimSpace(string(out))
	status, err := exec.Command("git", "status", "--porcelain").Output()
	if err != nil || len(bytes.TrimSpace(status)) > 0 {
		commit += "-dirty"
	}
	return commit
}

// e2eBenchSchemaVersion identifies the BENCH_e2e.json layout; bump on any
// field removal or rename.
const e2eBenchSchemaVersion = 2

// e2eBenchReport is the machine-readable end-to-end benchmark emitted by
// -bench-e2e: the full streaming pipeline (windowed .yvst ingest,
// mining-sharded blocking, disk-spilled candidate scoring, ranking)
// at each requested corpus size. Every row is measured in a fresh child
// process so peak_rss_bytes is the pipeline's real high-water mark, not
// the parent's dataset generator.
type e2eBenchReport struct {
	SchemaVersion int           `json:"schema_version"`
	Dataset       string        `json:"dataset"`
	SpillCap      int           `json:"spill_cap"`
	Rows          []e2eBenchRow `json:"rows"`
}

type e2eBenchRow struct {
	Records        int            `json:"records"`
	MineShards     int            `json:"mine_shards"`
	Workers        int            `json:"workers"`
	GoMaxProcs     int            `json:"gomaxprocs"`
	GoVersion      string         `json:"go_version"`
	GitCommit      string         `json:"git_commit,omitempty"`
	WallClockNS    int64          `json:"wall_clock_ns"`
	RecordsPerSec  float64        `json:"records_per_sec"`
	PeakRSSBytes   int64          `json:"peak_rss_bytes"`
	CandidatePairs int            `json:"candidate_pairs"`
	Matches        int            `json:"matches"`
	SpillRuns      int            `json:"spill_runs"`
	SpilledEntries int64          `json:"spilled_entries"`
	Stages         []e2eStageSpan `json:"stages"`
}

type e2eStageSpan struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
}

// e2eChildResult is the measurement the child process prints on stdout;
// the parent supplies wall clock and RSS from outside the process.
type e2eChildResult struct {
	Records        int            `json:"records"`
	GoMaxProcs     int            `json:"gomaxprocs"`
	GoVersion      string         `json:"go_version"`
	CandidatePairs int            `json:"candidate_pairs"`
	Matches        int            `json:"matches"`
	SpillRuns      int            `json:"spill_runs"`
	SpilledEntries int64          `json:"spilled_entries"`
	Stages         []e2eStageSpan `json:"stages"`
}

// e2eStreamOptions is the one pipeline configuration both the child and
// any in-process caller run: the bounded-memory streaming defaults over
// the random-set gazetteer.
func e2eStreamOptions(mineShards, workers int) core.StreamOptions {
	opts := core.StreamOptions{Options: core.Options{
		Blocking:   mfiblocks.NewConfig(),
		Preprocess: true,
		Gazetteer:  gazetteer.Builtin(dataset.RandomSetConfig(1).TownsPerCounty),
		SameSrc:    true,
		Workers:    workers,
	}}
	opts.Blocking.Workers = workers
	opts.Blocking.MineShards = mineShards
	opts.Blocking.SpillPairs = spill.DefaultCap
	return opts
}

// maxrssBytes converts getrusage's Maxrss to bytes: Linux reports KiB,
// darwin reports bytes. A hardcoded *1024 inflated darwin peaks (and any
// local -e2e-max-rss-mb gate) 1024×.
func maxrssBytes(maxrss int64) int64 {
	if runtime.GOOS == "darwin" {
		return maxrss
	}
	return maxrss * 1024
}

// runE2EChild is the measured half of -bench-e2e: stream the .yvst at
// path through the mining-sharded spilled pipeline and print the
// counters as JSON. It runs in its own process so the parent can read
// the kernel's peak-RSS accounting for exactly this work.
func runE2EChild(path string, mineShards, workers int, traceOut string) error {
	if workers > runtime.GOMAXPROCS(0) {
		runtime.GOMAXPROCS(workers)
	}
	src, err := store.OpenWindowReader(path)
	if err != nil {
		return fmt.Errorf("bench-e2e child: %w", err)
	}
	defer src.Close()

	opts := e2eStreamOptions(mineShards, workers)
	if traceOut != "" {
		opts.Trace = trace.New()
		opts.Trace.StartSampler(0)
	}
	// Live progress on stderr (stdout carries the JSON result): stage,
	// records/sec, ETA, every few seconds.
	opts.Progress = &trace.Progress{W: os.Stderr}
	opts.Progress.Start()
	res, err := core.RunStream(opts, src)
	opts.Progress.Stop()
	if err != nil {
		return fmt.Errorf("bench-e2e child: %w", err)
	}
	if traceOut != "" {
		opts.Trace.Sampler().Stop()
		if err := opts.Trace.WriteChromeFile(traceOut); err != nil {
			return fmt.Errorf("bench-e2e child: %w", err)
		}
		fmt.Fprintf(os.Stderr, "bench-e2e child: trace written to %s (%d spans)\n", traceOut, opts.Trace.Len())
	}
	out := e2eChildResult{
		Records:    res.Report.Records,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Matches:    len(res.Matches),
	}
	if res.Report.Scoring != nil {
		out.CandidatePairs = res.Report.Scoring.Candidates
	}
	if res.Blocking.Spill != nil {
		st := res.Blocking.Spill.Stats()
		out.SpillRuns = st.Runs
		out.SpilledEntries = st.SpilledEntries
	}
	for _, s := range res.Report.Stages {
		out.Stages = append(out.Stages, e2eStageSpan{Name: s.Name, DurationNS: s.DurationNS})
	}
	return json.NewEncoder(os.Stdout).Encode(&out)
}

// e2eCorpus generates a random-set corpus of exactly n records and writes
// it as a .yvst store under dir. Person count is seeded from the preset's
// ~2.1 reports/person ratio and grown until generation covers n, then the
// record list is truncated to exactly n so every row measures the size it
// claims.
func e2eCorpus(dir string, n int) (string, error) {
	persons := n * 55 / 100
	var records []*record.Record
	for try := 0; try < 4; try++ {
		cfg := dataset.RandomSetConfig(persons)
		gen, err := dataset.Generate(cfg)
		if err != nil {
			return "", fmt.Errorf("bench-e2e: generate: %w", err)
		}
		if len(gen.Collection.Records) >= n {
			records = gen.Collection.Records[:n]
			break
		}
		persons += persons / 2
	}
	if records == nil {
		return "", fmt.Errorf("bench-e2e: could not generate %d records", n)
	}
	path := filepath.Join(dir, fmt.Sprintf("e2e-%d.yvst", n))
	if err := store.WriteAll(path, records); err != nil {
		return "", fmt.Errorf("bench-e2e: store: %w", err)
	}
	return path, nil
}

// runE2EBench generates each requested corpus size, re-execs this binary
// as a child pipeline per row, and writes the self-validated JSON report
// to path. maxRSSMB > 0 turns the report into a gate: any row whose
// measured peak RSS exceeds the ceiling fails the run (the CI smoke
// test's memory-boundedness check).
func runE2EBench(path, recordsCSV string, mineShards, workers, maxRSSMB int, traceOut string) error {
	var sizes []int
	for _, f := range strings.Split(recordsCSV, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return fmt.Errorf("bench-e2e: bad -e2e-records entry %q", f)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return fmt.Errorf("bench-e2e: -e2e-records is empty")
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("bench-e2e: %w", err)
	}
	dir, err := os.MkdirTemp("", "yvbench-e2e-*")
	if err != nil {
		return fmt.Errorf("bench-e2e: %w", err)
	}
	defer os.RemoveAll(dir)

	report := e2eBenchReport{
		SchemaVersion: e2eBenchSchemaVersion,
		Dataset:       "random_set",
		SpillCap:      spill.DefaultCap,
	}
	for _, n := range sizes {
		fmt.Printf("bench-e2e: generating %d-record corpus...\n", n)
		corpus, err := e2eCorpus(dir, n)
		if err != nil {
			return err
		}
		fmt.Printf("bench-e2e: running pipeline over %s (mine-shards=%d workers=%d)...\n",
			filepath.Base(corpus), mineShards, workers)

		args := []string{
			"-e2e-child", corpus,
			"-e2e-mine-shards", strconv.Itoa(mineShards),
			"-e2e-workers", strconv.Itoa(workers),
		}
		if traceOut != "" {
			args = append(args, "-e2e-trace-out", rowTracePath(traceOut, n, len(sizes) > 1))
		}
		cmd := exec.Command(self, args...)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("bench-e2e: child at %d records: %w", n, err)
		}
		wall := time.Since(t0)

		var child e2eChildResult
		if err := json.Unmarshal(stdout.Bytes(), &child); err != nil {
			return fmt.Errorf("bench-e2e: child output at %d records: %w", n, err)
		}
		if child.Records != n {
			return fmt.Errorf("bench-e2e: child resolved %d records, want %d", child.Records, n)
		}
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return fmt.Errorf("bench-e2e: no rusage for child")
		}
		row := e2eBenchRow{
			Records:        n,
			MineShards:     mineShards,
			Workers:        workers,
			GoMaxProcs:     child.GoMaxProcs,
			GoVersion:      child.GoVersion,
			GitCommit:      gitCommit(),
			WallClockNS:    wall.Nanoseconds(),
			RecordsPerSec:  float64(n) / wall.Seconds(),
			PeakRSSBytes:   maxrssBytes(ru.Maxrss),
			CandidatePairs: child.CandidatePairs,
			Matches:        child.Matches,
			SpillRuns:      child.SpillRuns,
			SpilledEntries: child.SpilledEntries,
			Stages:         child.Stages,
		}
		report.Rows = append(report.Rows, row)
		// Persist after every row: a paper-scale suite runs for hours, and
		// an external kill mid-row must not lose the rows already measured.
		if err := writeE2EReport(path, &report); err != nil {
			return err
		}
		fmt.Printf("bench-e2e: %d records in %v (%.0f rec/s, peak RSS %d MiB, %d candidates, %d matches)\n",
			n, wall.Round(time.Millisecond), row.RecordsPerSec, row.PeakRSSBytes>>20,
			row.CandidatePairs, row.Matches)
		if maxRSSMB > 0 && row.PeakRSSBytes > int64(maxRSSMB)<<20 {
			return fmt.Errorf("bench-e2e: %d records peaked at %d MiB RSS, ceiling %d MiB",
				n, row.PeakRSSBytes>>20, maxRSSMB)
		}
	}
	fmt.Printf("e2e benchmark report written to %s\n", path)
	return nil
}

// writeE2EReport validates and writes the report's current rows to
// path, overwriting any previous (shorter) snapshot.
func writeE2EReport(path string, report *e2eBenchReport) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("bench-e2e: marshal: %w", err)
	}
	data = append(data, '\n')
	// Self-validate: the emitted bytes must round-trip and every row must
	// carry real measurements — a malformed report should fail here, not
	// in the CI step that consumes it.
	var check e2eBenchReport
	if err := json.Unmarshal(data, &check); err != nil {
		return fmt.Errorf("bench-e2e: emitted JSON does not round-trip: %w", err)
	}
	if check.SchemaVersion != e2eBenchSchemaVersion || len(check.Rows) != len(report.Rows) {
		return fmt.Errorf("bench-e2e: emitted report failed validation")
	}
	for _, r := range check.Rows {
		if r.Records <= 0 || r.WallClockNS <= 0 || r.RecordsPerSec <= 0 ||
			r.PeakRSSBytes <= 0 || r.CandidatePairs <= 0 || len(r.Stages) == 0 {
			return fmt.Errorf("bench-e2e: row at %d records has no measurements", r.Records)
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench-e2e: %w", err)
	}
	return nil
}
