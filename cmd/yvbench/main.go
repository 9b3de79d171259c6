// Command yvbench regenerates the paper's tables and figures.
//
// Usage:
//
//	yvbench [-scale quick|full] [-list] [-report out.json] [-v] [exp ...]
//	yvbench -bench-blocking out.json
//	yvbench -bench-scoring out.json
//	yvbench -bench-e2e out.json [-e2e-records 100000,1000000] [-e2e-mine-shards n] [-e2e-workers n] [-e2e-max-rss-mb n] [-e2e-trace-out t.json]
//
// With no experiment ids, every experiment runs in paper order. Use -list
// to enumerate the available ids. -report writes the accumulated
// telemetry registry (every counter, gauge, and histogram the runs
// produced) as JSON when the experiments finish. -bench-blocking skips
// the experiments entirely and instead micro-benchmarks the blocking
// engine hot paths (FP-tree build, maximal mining at several worker
// counts, support-set probes), writing a machine-readable JSON report.
// -bench-scoring does the same for the pair-scoring hot paths: the
// similarity kernels (string tier and interned-ID tier), profile
// construction, profiled extraction with the memo cache off and on, and
// the end-to-end scoring stage at two worker counts. -bench-e2e measures
// the full streaming pipeline (windowed .yvst ingest, mining-sharded
// blocking, disk-spilled scoring, ranking) at each -e2e-records corpus
// size, re-execing itself per row so peak RSS is the pipeline's own
// high-water mark; -e2e-max-rss-mb turns the report into a CI gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "dataset scale: quick or full")
	list := flag.Bool("list", false, "list experiment ids and exit")
	workers := flag.Int("workers", 0, "blocking and pair-scoring workers for pipeline experiments (0 = GOMAXPROCS, 1 = serial)")
	reportPath := flag.String("report", "", "write the accumulated telemetry registry (JSON) to this file")
	benchBlocking := flag.String("bench-blocking", "", "benchmark the blocking engine hot paths and write the JSON report to this file, then exit")
	benchScoring := flag.String("bench-scoring", "", "benchmark the pair-scoring kernels and stage and write the JSON report to this file, then exit")
	benchE2E := flag.String("bench-e2e", "", "benchmark the streaming pipeline end-to-end and write the JSON report to this file, then exit")
	e2eRecords := flag.String("e2e-records", "100000,1000000", "comma-separated corpus sizes (records) for -bench-e2e")
	e2eMineShards := flag.Int("e2e-mine-shards", 8, "shard-local MFI miners for -bench-e2e rows (0 or 1 = one mining pass)")
	e2eWorkers := flag.Int("e2e-workers", 8, "pipeline workers for -bench-e2e rows")
	e2eMaxRSSMB := flag.Int("e2e-max-rss-mb", 0, "fail -bench-e2e if any row's peak RSS exceeds this many MiB (0 = no ceiling)")
	e2eTraceOut := flag.String("e2e-trace-out", "", "write each -bench-e2e row's trace (Chrome trace-event JSON) to this file (multi-size runs suffix the record count)")
	e2eChild := flag.String("e2e-child", "", "internal: stream this .yvst through the pipeline, print JSON counters, and exit")
	verbose := flag.Bool("v", false, "debug logging (per-stage and per-iteration telemetry)")
	flag.Parse()
	telemetry.SetVerbose(*verbose)

	if *e2eChild != "" {
		if err := runE2EChild(*e2eChild, *e2eMineShards, *e2eWorkers, *e2eTraceOut); err != nil {
			fmt.Fprintf(os.Stderr, "yvbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *benchE2E != "" {
		if err := runE2EBench(*benchE2E, *e2eRecords, *e2eMineShards, *e2eWorkers, *e2eMaxRSSMB, *e2eTraceOut); err != nil {
			fmt.Fprintf(os.Stderr, "yvbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *benchBlocking != "" {
		if err := runBlockingBench(*benchBlocking); err != nil {
			fmt.Fprintf(os.Stderr, "yvbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *benchScoring != "" {
		if err := runScoringBench(*benchScoring); err != nil {
			fmt.Fprintf(os.Stderr, "yvbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "yvbench: -workers must be >= 0, got %d\n", *workers)
		os.Exit(2)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "yvbench: unknown scale %q (want quick or full)\n", *scaleFlag)
		os.Exit(2)
	}

	var selected []experiments.Experiment
	if flag.NArg() == 0 {
		selected = experiments.All()
	} else {
		for _, id := range flag.Args() {
			e := experiments.ByID(id)
			if e == nil {
				fmt.Fprintf(os.Stderr, "yvbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, *e)
		}
	}

	runner := experiments.NewRunner(scale)
	runner.ScoringWorkers = *workers
	for _, e := range selected {
		t0 := time.Now()
		if err := e.Run(runner, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "yvbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("-- %s done in %v --\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}

	if *reportPath != "" {
		if err := telemetry.Default().WriteJSONFile(*reportPath); err != nil {
			fmt.Fprintf(os.Stderr, "yvbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("telemetry report written to %s\n", *reportPath)
	}
}
