package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// layerClock times the benchmark's own calls into a layer's public
// entry points: one duration sample per call, under the call's name.
type layerClock map[string][]time.Duration

// time runs fn as one call of the named entry point.
func (c layerClock) time(name string, fn func()) {
	t0 := time.Now()
	fn()
	c[name] = append(c[name], time.Since(t0))
}

// median returns the median duration of the named call in the given
// unit (time.Millisecond, time.Microsecond, ...), 0 when never called.
func (c layerClock) median(name string, unit time.Duration) float64 {
	xs := make([]float64, 0, len(c[name]))
	for _, d := range c[name] {
		xs = append(xs, float64(d)/float64(unit))
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// reportLayers reads the per-layer metrics a traced run's RunReport and
// span tree carry: stage wall clocks, blocking iteration counters,
// spill and scoring counters, and the mfiblocks / fpgrowth sub-layer
// spans.
func reportLayers(rep *telemetry.RunReport, m map[string]float64) {
	m["store.records"] = float64(rep.Records)
	m["store.ingest_s"] = 0 // only a streaming run has an ingest stage
	for _, st := range rep.Stages {
		sec := float64(st.DurationNS) / 1e9
		switch st.Name {
		case "ingest":
			m["store.ingest_s"] = sec
		case "blocking":
			m["mfiblocks.blocking_s"] = sec
		case "scoring":
			m["core.scoring_s"] = sec
		case "rank":
			m["core.rank_s"] = sec
		}
	}
	if b := rep.Blocking; b != nil {
		var mfis, kept, ng, cs, later float64
		for i, it := range b.Iterations {
			if i == 0 {
				m["mfiblocks.first_iter_s"] = float64(it.DurationNS) / 1e9
			} else {
				later += float64(it.DurationNS) / 1e9
			}
			mfis += float64(it.MFIs)
			kept += float64(it.Blocks)
			ng += float64(it.NGPruned)
			cs += float64(it.CSPruned)
		}
		m["mfiblocks.later_iters_s"] = later
		m["mfiblocks.mfis"] = mfis
		m["mfiblocks.blocks_kept"] = kept
		m["mfiblocks.ng_pruned"] = ng
		m["mfiblocks.cs_pruned"] = cs
		m["mfiblocks.block_yield"] = ratio(kept, mfis)
		m["spill.runs"] = float64(b.SpillRuns)
		m["spill.spilled_entries"] = float64(b.SpilledEntries)
	}
	if s := rep.Scoring; s != nil {
		m["mfiblocks.candidate_pairs"] = float64(s.Candidates)
		m["core.match_yield"] = ratio(float64(s.Matches), float64(s.Candidates))
		m["adtree.model_dropped"] = float64(s.ModelDropped)
		m["features.memo_hit_ratio"] = ratio(float64(s.MemoHits), float64(s.MemoHits+s.MemoMisses))
		m["features.profile_hit_ratio"] = ratio(float64(s.ProfileHits), float64(s.ProfileHits+s.ProfileMisses))
	}
	if rep.Spans != nil {
		spanLayers(rep.Spans.Roots, m)
	}
}

// spanLayers sums the sub-layer spans the program emits when traced and
// derives the mining merge tail and worker imbalance.
func spanLayers(roots []*trace.Node, m map[string]float64) {
	sums := map[string]float64{}
	var mines []*trace.Node
	var walk func(n *trace.Node)
	walk = func(n *trace.Node) {
		sums[n.Name] += float64(n.DurationNS) / 1e9
		if n.Name == "mine" {
			mines = append(mines, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	m["mfiblocks.build_blocks_s"] = sums["build_blocks"]
	m["fpgrowth.mine_s"] = sums["mine"]
	m["fpgrowth.tree_build_s"] = sums["tree_build"]
	m["spill.flush_s"] = sums["spill_flush"]
	m["features.profile_build_s"] = sums["profile_build"]

	self := 0.0
	var longest *trace.Node
	for _, n := range mines {
		self += float64(selfNS(n)) / 1e9
		if longest == nil || n.DurationNS > longest.DurationNS {
			longest = n
		}
	}
	m["fpgrowth.mine_self_s"] = self
	m["fpgrowth.worker_imbalance"] = 0
	if longest != nil {
		m["fpgrowth.worker_imbalance"] = imbalance(longest)
	}
}

// selfNS is a span's duration minus the part of its interval its
// children cover.
func selfNS(n *trace.Node) int64 {
	type iv struct{ lo, hi int64 }
	end := n.StartNS + n.DurationNS
	var ivs []iv
	for _, c := range n.Children {
		lo, hi := max(c.StartNS, n.StartNS), min(c.StartNS+c.DurationNS, end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, curLo, curHi := int64(0), int64(-1), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	covered += curHi - curLo
	return n.DurationNS - covered
}

// imbalance is max/mean of the mine_worker spans under a mine span: 1
// when the workers finish together, up to the worker count when one
// worker does all the work.
func imbalance(mine *trace.Node) float64 {
	var durs []float64
	var walk func(n *trace.Node)
	walk = func(n *trace.Node) {
		if n.Name == "mine_worker" {
			durs = append(durs, float64(n.DurationNS))
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(mine)
	if len(durs) == 0 {
		return 0
	}
	sum, top := 0.0, 0.0
	for _, d := range durs {
		sum += d
		top = math.Max(top, d)
	}
	return ratio(top, sum/float64(len(durs)))
}
