package mfiblocks

import (
	"fmt"

	"repro/internal/fpgrowth"
	"repro/internal/record"
)

// BlockBench exposes one iteration's block-materialization hot paths —
// the merge-based cluster-Jaccard scorer and the buildBlocks pool — to
// cmd/yvbench -bench-blocking without exporting the engine internals. It
// freezes the mined MFIs of one minsup level so repeated calls measure
// exactly the same work.
type BlockBench struct {
	cfg    Config
	sc     *scorer
	index  *fpgrowth.Index
	mfis   []fpgrowth.Itemset
	minsup int
}

// NewBlockBench encodes the collection, mines the MFIs at minsup, and
// returns the frozen benchmark state.
func NewBlockBench(cfg Config, coll *record.Collection, minsup int) (*BlockBench, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	corpus := NewCorpus(coll)
	miner := fpgrowth.NewMinerTxns(corpus.Txns)
	miner.Workers = cfg.Workers
	mfis := miner.MineMaximal(minsup, nil)
	if len(mfis) == 0 {
		return nil, fmt.Errorf("mfiblocks: bench mined no MFIs at minsup=%d", minsup)
	}
	return &BlockBench{
		cfg:    cfg,
		sc:     newScorer(&cfg, corpus.Dict, corpus.Txns, corpus.Records),
		index:  miner.BuildIndex(),
		mfis:   mfis,
		minsup: minsup,
	}, nil
}

// MFIs reports how many itemsets each BuildBlocks call materializes.
func (b *BlockBench) MFIs() int { return len(b.mfis) }

// LargestMembers returns the largest materialized support set among the
// mined MFIs — the representative input for scoring benchmarks.
func (b *BlockBench) LargestMembers() []int {
	var best []int
	for _, m := range b.mfis {
		if set := b.index.SupportSet(m.Items); len(set) > len(best) {
			best = set
		}
	}
	return best
}

// Score runs the block scorer (cluster Jaccard under the bench config)
// over the members.
func (b *BlockBench) Score(members []int) float64 { return b.sc.score(members) }

// BuildBlocks materializes, caps, and scores every frozen MFI through
// the engine's buildBlocks pool and returns the surviving block count.
func (b *BlockBench) BuildBlocks() int {
	blocks, _ := buildBlocks(&b.cfg, b.sc, b.index, b.mfis, b.minsup)
	return len(blocks)
}
