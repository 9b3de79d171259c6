package mfiblocks

import (
	"io"
	"reflect"
	"testing"

	"repro/internal/record"
)

// drainSpill collects a spill result's merged stream.
func drainSpill(t *testing.T, res *Result) map[record.Pair]float64 {
	t.Helper()
	it, err := res.Spill.Iter()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[record.Pair]float64)
	for {
		p, score, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out[p] = score
	}
	return out
}

// TestRunSpillMatchesInMemory asserts the spilled candidate stream holds
// exactly the pairs and max-combined scores of the unspilled run, for a
// cap small enough to force many disk runs and a cap that never spills.
func TestRunSpillMatchesInMemory(t *testing.T) {
	g := smallItaly(t, 300)
	want, err := Run(NewConfig(), g.Collection)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Pairs) < 100 {
		t.Fatalf("baseline too small to exercise spilling: %d pairs", len(want.Pairs))
	}

	for _, capEntries := range []int{32, 1 << 20} {
		cfg := NewConfig()
		cfg.SpillPairs = capEntries
		cfg.SpillDir = t.TempDir()
		cfg.MineShards = 4 // spill and mining shards compose
		res, err := Run(cfg, g.Collection)
		if err != nil {
			t.Fatal(err)
		}
		if res.Pairs != nil || res.PairScores != nil || res.PairBlocks != nil {
			t.Fatalf("cap=%d: spill run populated in-memory pair state", capEntries)
		}
		if capEntries == 32 && res.Spill.Stats().Runs == 0 {
			t.Fatal("cap=32 never spilled; fixture too small")
		}
		got := drainSpill(t, res)
		if len(got) != len(want.PairScores) {
			t.Fatalf("cap=%d: %d pairs, want %d", capEntries, len(got), len(want.PairScores))
		}
		for p, score := range want.PairScores {
			if got[p] != score {
				t.Fatalf("cap=%d: pair %v score %v, want %v", capEntries, p, got[p], score)
			}
		}
		if !reflect.DeepEqual(want.Covered, res.Covered) {
			t.Fatalf("cap=%d: Covered diverges", capEntries)
		}
		if !reflect.DeepEqual(want.Blocks, res.Blocks) {
			t.Fatalf("cap=%d: Blocks diverge", capEntries)
		}
		if err := res.Spill.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunCorpusWithoutRecords asserts the default scorer never needs raw
// records — the property the streaming pipeline's skeleton mode relies
// on — while ExpertSim correctly refuses a record-free corpus.
func TestRunCorpusWithoutRecords(t *testing.T) {
	g := smallItaly(t, 200)
	corpus := NewCorpus(g.Collection)
	want, err := RunCorpus(NewConfig(), corpus)
	if err != nil {
		t.Fatal(err)
	}

	bare := &Corpus{Dict: corpus.Dict, Txns: corpus.Txns, BookIDs: corpus.BookIDs}
	got, err := RunCorpus(NewConfig(), bare)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Pairs, got.Pairs) {
		t.Fatal("record-free corpus changed Pairs")
	}
	if !reflect.DeepEqual(want.PairScores, got.PairScores) {
		t.Fatal("record-free corpus changed PairScores")
	}

	expert := NewConfig()
	expert.ExpertSim = true
	expert.Geo = g.Gaz
	if _, err := RunCorpus(expert, bare); err == nil {
		t.Fatal("ExpertSim accepted a corpus without records")
	}
}

// TestCorpusValidate pins the structural checks.
func TestCorpusValidate(t *testing.T) {
	g := smallItaly(t, 50)
	corpus := NewCorpus(g.Collection)
	if err := corpus.validate(); err != nil {
		t.Fatalf("valid corpus rejected: %v", err)
	}
	bad := *corpus
	bad.BookIDs = bad.BookIDs[:1]
	if err := bad.validate(); err == nil {
		t.Error("length mismatch accepted")
	}
	bad = *corpus
	bad.Dict = nil
	if err := bad.validate(); err == nil {
		t.Error("nil dictionary accepted")
	}
	bad = *corpus
	bad.Records = bad.Records[:1]
	if err := bad.validate(); err == nil {
		t.Error("record misalignment accepted")
	}
}

// TestConfigValidateShardSpill extends the validation table to the
// mining-shard and spill knobs.
func TestConfigValidateShardSpill(t *testing.T) {
	cfg := NewConfig()
	cfg.MineShards = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative MineShards accepted")
	}
	cfg = NewConfig()
	cfg.SpillPairs = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative SpillPairs accepted")
	}
	cfg = NewConfig()
	cfg.MineShards = 8
	cfg.SpillPairs = 1024
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid sharded spill config rejected: %v", err)
	}
}
