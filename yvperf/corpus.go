package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"repro/internal/dataset"
	"repro/internal/record"
	"repro/internal/store"
)

// corpus is one workload's input: the records in store order and the
// gold entity of every record.
type corpus struct {
	Records []*record.Record
	// Entity maps a record's BookID to its gold entity id.
	Entity map[int64]int64
	// TownsPerCounty sizes the gazetteer the corpus was generated over;
	// preprocessing canonicalizes places against the same gazetteer.
	TownsPerCounty int
}

// communityStride separates the BookIDs (and gold entity ids) of the
// communities a lists corpus concatenates.
const communityStride = 100_000_000

// subSeed derives the generator seed of one corpus part from the
// workload seed (splitmix64), so parts are independent yet reproducible.
func subSeed(seed int64, part int) int64 {
	z := uint64(seed) + uint64(part+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// generateExactly generates from cfg until the output holds at least n
// records and keeps the first n, so a corpus has the size it claims.
// Only single-community configs are passed here: dataset.Generate ranges
// over a map for multi-community configs, so their output is not a
// function of the config alone.
func generateExactly(cfg dataset.Config, n int) (*dataset.Generated, []*record.Record, error) {
	if len(cfg.Communities) != 1 {
		return nil, nil, fmt.Errorf("corpus: %d communities, want 1", len(cfg.Communities))
	}
	cfg.Persons = n*55/100 + 1
	for try := 0; try < 6; try++ {
		gen, err := dataset.Generate(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("corpus: generate: %w", err)
		}
		if len(gen.Records) >= n {
			return gen, gen.Records[:n], nil
		}
		cfg.Persons += cfg.Persons/4 + 1
	}
	return nil, nil, fmt.Errorf("corpus: could not generate %d records", n)
}

// listsCorpus is random-set shaped: six communities, list-heavy, n
// records split by the preset's community weights. Each community is
// generated on its own from a seed derived from the workload seed and
// the parts are concatenated with disjoint BookIDs and entity ids.
func listsCorpus(seed int64, n int) (*corpus, error) {
	base := dataset.RandomSetConfig(1)
	total := 0.0
	for _, cw := range base.Communities {
		total += cw.Weight
	}
	c := &corpus{Entity: make(map[int64]int64, n), TownsPerCounty: base.TownsPerCounty}
	left := n
	for i, cw := range base.Communities {
		want := int(float64(n) * cw.Weight / total)
		if i == len(base.Communities)-1 {
			want = left
		}
		left -= want
		cfg := base
		cfg.Seed = subSeed(seed, i)
		cfg.Communities = []dataset.CommunityWeight{{Comm: cw.Comm, Weight: 1}}
		gen, recs, err := generateExactly(cfg, want)
		if err != nil {
			return nil, err
		}
		offset := int64(i) * communityStride
		for _, r := range recs {
			ent, ok := gen.Gold.Entity(r.BookID)
			if !ok {
				return nil, fmt.Errorf("corpus: record %d has no gold entity", r.BookID)
			}
			r.BookID += offset
			c.Entity[r.BookID] = offset + int64(ent)
			c.Records = append(c.Records, r)
		}
	}
	return c, nil
}

// testimonyCorpus is Italy shaped: one community, testimony heavy, with
// the extreme-volume submitter, n records, generated from a seed derived
// from the workload seed.
func testimonyCorpus(seed int64, n int) (*corpus, error) {
	cfg := dataset.ItalyConfig()
	cfg.Seed = subSeed(seed, 0)
	gen, recs, err := generateExactly(cfg, n)
	if err != nil {
		return nil, err
	}
	return fromGenerated(gen, recs, cfg.TownsPerCounty)
}

// presetConfig is the Italy preset exactly as the library defines it.
var presetConfig = dataset.ItalyConfig

// italyPreset generates the Italy preset: the serve workload's corpus
// and the model's training data.
func italyPreset() (*dataset.Generated, *corpus, error) {
	cfg := presetConfig()
	gen, err := dataset.Generate(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("corpus: generate: %w", err)
	}
	c, err := fromGenerated(gen, gen.Records, cfg.TownsPerCounty)
	return gen, c, err
}

func fromGenerated(gen *dataset.Generated, recs []*record.Record, towns int) (*corpus, error) {
	c := &corpus{Entity: make(map[int64]int64, len(recs)), TownsPerCounty: towns}
	for _, r := range recs {
		ent, ok := gen.Gold.Entity(r.BookID)
		if !ok {
			return nil, fmt.Errorf("corpus: record %d has no gold entity", r.BookID)
		}
		c.Entity[r.BookID] = int64(ent)
	}
	c.Records = recs
	return c, nil
}

// write stores the corpus as a .yvst file plus a gold file (BookID and
// entity id, little-endian int64 pairs, in store order) and returns the
// fingerprint of both.
func (c *corpus) write(storePath, goldPath string) (string, error) {
	if err := store.WriteAll(storePath, c.Records); err != nil {
		return "", fmt.Errorf("corpus: store: %w", err)
	}
	buf := make([]byte, 0, 16*len(c.Records))
	for _, r := range c.Records {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.BookID))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Entity[r.BookID]))
	}
	if err := os.WriteFile(goldPath, buf, 0o644); err != nil {
		return "", fmt.Errorf("corpus: gold: %w", err)
	}
	return fingerprint(storePath, goldPath)
}

// fingerprint hashes the store and gold files: two corpora have the same
// fingerprint exactly when they have the same bytes.
func fingerprint(paths ...string) (string, error) {
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", fmt.Errorf("fingerprint: %w", err)
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", fmt.Errorf("fingerprint: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12]), nil
}

// readGold loads a gold file written by corpus.write.
func readGold(path string) (map[int64]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("gold: %w", err)
	}
	if len(data)%16 != 0 {
		return nil, fmt.Errorf("gold: %s is %d bytes, not a multiple of 16", path, len(data))
	}
	out := make(map[int64]int64, len(data)/16)
	for i := 0; i < len(data); i += 16 {
		out[int64(binary.LittleEndian.Uint64(data[i:]))] = int64(binary.LittleEndian.Uint64(data[i+8:]))
	}
	return out, nil
}
