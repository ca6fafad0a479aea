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

// ServedSyncMixed is RunSyncMixed on the serving core (transitional name).
func ServedSyncMixed(cfg SyncMixedConfig, train, test []nn.Sample) *metrics.Series {
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
