package main

import (
	"fmt"
	"math/rand"
	"os"

	"repro/internal/adtree"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mfiblocks"
)

// tagSeed seeds the simulated experts who grade the training pairs.
const tagSeed = 2016

// trainModel trains the match ADTree the way a deployment does: the
// simulated experts grade the Italy preset's blocking candidates
// (dataset.Tagger) and core.TrainModel fits the tree, Maybe omitted.
func trainModel(italy *dataset.Generated) (*adtree.Model, error) {
	pre, err := core.PreprocessWith(italy.Collection, italy.Gaz)
	if err != nil {
		return nil, fmt.Errorf("train: preprocess: %w", err)
	}
	blk, err := mfiblocks.Run(mfiblocks.NewConfig(), pre)
	if err != nil {
		return nil, fmt.Errorf("train: blocking: %w", err)
	}
	tagger := &dataset.Tagger{Gold: italy.Gold, Coll: italy.Collection, Rng: rand.New(rand.NewSource(tagSeed))}
	model, err := core.TrainModel(adtree.NewTrainConfig(), tagger.TagPairs(blk.Pairs), italy.Collection, italy.Gaz, core.OmitMaybe)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	return model, nil
}

// saveModel writes the model as JSON for the measured child to load.
func saveModel(m *adtree.Model, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("model: %w", err)
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return fmt.Errorf("model: %w", err)
	}
	return f.Close()
}

// loadModel reads a model written by saveModel.
func loadModel(path string) (*adtree.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	defer f.Close()
	m, err := adtree.Load(f)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	return m, nil
}
