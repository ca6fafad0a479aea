package core

import (
	"fmt"

	"fleet/internal/data"
	"fleet/internal/learning"
	"fleet/internal/metrics"
	"fleet/internal/nn"
	"fleet/internal/server"
	"fleet/internal/simrand"
)

// SyncMixedConfig parameterizes the Figure-3 experiment: synchronous
// distributed SGD where each step aggregates one gradient from every
// worker, and workers differ only in mini-batch size ("strong" n=128 vs
// "weak" n=1). Weak workers inject high-variance gradients that can cancel
// the benefit of distributed learning — the motivation for lower-bounding
// the mini-batch size (§2.2).
type SyncMixedConfig struct {
	Arch nn.Arch
	// StrongWorkers and WeakWorkers are the population counts.
	StrongWorkers int
	WeakWorkers   int
	// StrongBatch and WeakBatch are the respective mini-batch sizes
	// (paper: 128 and 1).
	StrongBatch  int
	WeakBatch    int
	LearningRate float64
	Steps        int
	EvalEvery    int
	Seed         int64
}

// RunSyncMixed trains with equal-weight gradient averaging across all
// workers (each drawing IID batches from the shared training set) and
// returns test accuracy vs. step.
func RunSyncMixed(cfg SyncMixedConfig, train, test []nn.Sample) *metrics.Series {
	workers := cfg.StrongWorkers + cfg.WeakWorkers
	if workers == 0 {
		panic("core: RunSyncMixed needs at least one worker")
	}
	rng := simrand.New(cfg.Seed)
	// Equal-weight averaging is the server's K-sum at γ/W: a window of one
	// staleness-free gradient per worker.
	d := NewDriver(server.Config{
		Arch: cfg.Arch, Algorithm: learning.SSGD{}, K: workers,
		LearningRate: cfg.LearningRate / float64(workers), Seed: cfg.Seed + 1,
	}, 1)

	series := &metrics.Series{Name: fmt.Sprintf("%d strong + %d weak", cfg.StrongWorkers, cfg.WeakWorkers)}
	for t := 1; t <= cfg.Steps; t++ {
		for w := 0; w < workers; w++ {
			batchSize := cfg.StrongBatch
			if w >= cfg.StrongWorkers {
				batchSize = cfg.WeakBatch
			}
			d.Push(w, 0, data.SampleBatch(rng, train, batchSize))
		}
		if cfg.EvalEvery > 0 && t%cfg.EvalEvery == 0 {
			series.Add(float64(t), d.Evaluate(test))
		}
	}
	if cfg.EvalEvery <= 0 || cfg.Steps%cfg.EvalEvery != 0 {
		series.Add(float64(cfg.Steps), d.Evaluate(test))
	}
	return series
}
