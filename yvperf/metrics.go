package main

import (
	"math"
	"sort"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload. BENCHMARK.json lists the same names
// and units, with the bound by which each may worsen.
var endToEnd = []metricSpec{
	{"resolve_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"pair_recall", "ratio"},
	{"pair_precision", "ratio"},
	{"search_p50_ms", "ms"},
	{"sweep_p50_ms", "ms"},
	{"lookup_p50_ms", "ms"},
	{"success_rate", "ratio"},
}

// perLayer are the single-layer metrics of the traced run, grouped by
// the module that does the work.
var perLayer = []metricSpec{
	{"store.ingest_s", "s"},
	{"store.records", "count"},
	{"core.preprocess_s", "s"},
	{"core.scoring_s", "s"},
	{"core.rank_s", "s"},
	{"core.match_yield", "ratio"},
	{"mfiblocks.blocking_s", "s"},
	{"mfiblocks.first_iter_s", "s"},
	{"mfiblocks.later_iters_s", "s"},
	{"mfiblocks.build_blocks_s", "s"},
	{"mfiblocks.mfis", "count"},
	{"mfiblocks.blocks_kept", "count"},
	{"mfiblocks.ng_pruned", "count"},
	{"mfiblocks.cs_pruned", "count"},
	{"mfiblocks.block_yield", "ratio"},
	{"mfiblocks.candidate_pairs", "count"},
	{"mfiblocks.blocking_exponent", "ratio"},
	{"fpgrowth.mine_s", "s"},
	{"fpgrowth.mine_self_s", "s"},
	{"fpgrowth.tree_build_s", "s"},
	{"fpgrowth.worker_imbalance", "ratio"},
	{"spill.runs", "count"},
	{"spill.spilled_entries", "count"},
	{"spill.flush_s", "s"},
	{"features.profile_build_s", "s"},
	{"features.memo_hit_ratio", "ratio"},
	{"features.profile_hit_ratio", "ratio"},
	{"adtree.model_dropped", "count"},
	{"core.clusters_fresh_ms", "ms"},
	{"core.search_cached_ms", "ms"},
	{"core.entity_of_us", "us"},
	{"core.score_pair_us", "us"},
	{"narrative.build_us", "us"},
	{"server.overhead_us", "us"},
	{"server.queue_wait_ms", "ms"},
	{"server.shed", "count"},
	{"server.timeouts", "count"},
	{"server.generator_lag_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"runtime.alloc_bytes", "bytes"},
	{"runtime.gc_cycles", "count"},
	// Latency tails: they do not repeat within a tenth at the run length
	// the benchmark affords, so they are reported here, not end to end.
	{"search_p99_ms", "ms"},
	{"sweep_p90_ms", "ms"},
	{"lookup_p99_ms", "ms"},
	{"error_rate", "ratio"},
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the middle of xs (mean of the two middles for an even
// count); NaN for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
