package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fpgrowth"
	"repro/internal/mfiblocks"
	"repro/internal/record"
)

// blockingBenchSchemaVersion identifies the BENCH_blocking.json layout;
// bump on any field removal or rename.
const blockingBenchSchemaVersion = 1

// blockingBenchReport is the machine-readable blocking micro-benchmark
// emitted by -bench-blocking: the hot paths of the blocking engine (flat
// FP-tree construction, maximal mining at several worker counts, and
// support-set probes) measured over a dataset-generated workload so CI
// can track ns/op and allocs/op across revisions.
type blockingBenchReport struct {
	SchemaVersion int                  `json:"schema_version"`
	GoMaxProcs    int                  `json:"gomaxprocs"`
	Records       int                  `json:"records"`
	Items         int                  `json:"items"`
	Benchmarks    []blockingBenchEntry `json:"benchmarks"`
}

type blockingBenchEntry struct {
	Name        string  `json:"name"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// runBlockingBench measures the blocking engine over a scaled-down Italy
// dataset and writes the JSON report to path. The scale keeps a full
// sweep under a few seconds so CI can run it as a smoke test.
func runBlockingBench(path string) error {
	cfg := dataset.ItalyConfig()
	cfg.Persons = 1200 // ~2.5K records: representative shape, CI-fast
	gen, err := dataset.Generate(cfg)
	if err != nil {
		return fmt.Errorf("bench-blocking: generate: %w", err)
	}
	coll := gen.Collection
	dict := record.BuildDictionary(coll)
	encoded := make([][]int, coll.Len())
	for i, r := range coll.Records {
		encoded[i] = dict.Encode(r)
	}

	const minsup = 3
	report := blockingBenchReport{
		SchemaVersion: blockingBenchSchemaVersion,
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Records:       coll.Len(),
		Items:         dict.Len(),
	}
	add := func(name string, workers int, fn func(*testing.B)) {
		r, procs := benchAt(workers, fn)
		report.Benchmarks = append(report.Benchmarks, blockingBenchEntry{
			Name:        name,
			GoMaxProcs:  procs,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}

	miner := fpgrowth.NewMiner(encoded)
	add("tree_build", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			miner.TreeStats(minsup, nil)
		}
	})
	for _, workers := range []int{1, 8} {
		m := fpgrowth.NewMiner(encoded)
		m.Workers = workers
		add(fmt.Sprintf("mine_maximal/workers=%d", workers), workers, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.MineMaximal(minsup, nil)
			}
		})
	}
	index := miner.BuildIndex()
	mfis := miner.MineMaximal(minsup, nil)
	if len(mfis) == 0 {
		return fmt.Errorf("bench-blocking: dataset mined no MFIs at minsup=%d", minsup)
	}
	add("support_set", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			index.SupportSet(mfis[i%len(mfis)].Items)
		}
	})
	add("build_index", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			miner.BuildIndex()
		}
	})

	// Block materialization: the merge-based scorer in isolation, then
	// the full buildBlocks pool.
	bbCfg := mfiblocks.NewConfig()
	bbCfg.Workers = 1
	bb, err := mfiblocks.NewBlockBench(bbCfg, coll, minsup)
	if err != nil {
		return fmt.Errorf("bench-blocking: %w", err)
	}
	members := bb.LargestMembers()
	add("cluster_jaccard", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bb.Score(members)
		}
	})
	add("build_blocks", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bb.BuildBlocks()
		}
	})

	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return fmt.Errorf("bench-blocking: marshal: %w", err)
	}
	data = append(data, '\n')
	// Self-validate: the emitted bytes must round-trip, and every entry
	// must carry a positive iteration count — a malformed report should
	// fail here, not in the CI step that consumes it.
	var check blockingBenchReport
	if err := json.Unmarshal(data, &check); err != nil {
		return fmt.Errorf("bench-blocking: emitted JSON does not round-trip: %w", err)
	}
	if check.SchemaVersion != blockingBenchSchemaVersion || len(check.Benchmarks) == 0 {
		return fmt.Errorf("bench-blocking: emitted report failed validation")
	}
	for _, e := range check.Benchmarks {
		if e.Iterations <= 0 || e.NsPerOp <= 0 {
			return fmt.Errorf("bench-blocking: benchmark %q has no measurements", e.Name)
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench-blocking: %w", err)
	}
	for _, e := range report.Benchmarks {
		fmt.Printf("%-28s %12.0f ns/op %8d allocs/op %10d B/op\n",
			e.Name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
	}
	fmt.Printf("blocking benchmark report written to %s\n", path)
	return nil
}
