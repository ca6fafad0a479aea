package experiments

import (
	"fmt"

	"fleet/internal/core"
	"fleet/internal/data"
	"fleet/internal/learning"
	"fleet/internal/pipeline"
	"fleet/internal/server"
	"fleet/internal/simrand"
)

// byzantine evaluates the §4 claim that robust aggregation is pluggable
// into FLeet: 20% of the workers are adversarial (they send sign-flipped,
// amplified gradients) while updates aggregate K=5 gradients per window
// under D1 staleness, each rule a registry-selected window aggregator of the
// server's update pipeline (internal/pipeline).
func byzantine(scale Scale) *Report {
	rep := &Report{}
	// Robust aggregation is evaluated on IID users (as in the Byzantine-SGD
	// literature the paper cites): per-coordinate medians of non-IID
	// gradients are biased toward zero and would confound the attack.
	pop := mnistNonIID(scale, 18).iid(19)
	users := pop.users

	// Every 5th user is Byzantine: sign-flip with 5x amplification, the
	// classic model-poisoning attack.
	attack := func(workerID int, grad []float64) []float64 {
		if workerID%5 != 0 {
			return grad
		}
		out := make([]float64, len(grad))
		for i, g := range grad {
			out[i] = -5 * g
		}
		return out
	}

	const k = 5
	updates := pop.steps / 2
	staleness := d1.sampler()

	run := func(aggSpec string, attacked bool) float64 {
		algo := learning.NewAdaSGD(adaConfig())
		pipe, err := pipeline.Build("staleness", aggSpec, pipeline.BuildOptions{Algorithm: algo, Seed: 54})
		if err != nil {
			panic(fmt.Sprintf("experiments: building %q pipeline: %v", aggSpec, err))
		}
		// Every aggregator applies the K-sum magnitude of Equation 3 (the
		// retained rules scale their direction by the window size), so the
		// learning rate needs no per-rule compensation. D1 staleness is
		// imposed the §3.2 way: the driver computes each gradient against
		// the snapshot τ versions back.
		d := core.NewDriver(server.Config{
			Arch: pop.arch, Algorithm: algo, LearningRate: pop.lr, K: k,
			Pipeline: pipe, Seed: 54,
		}, 257) // far deeper than D1 ever draws
		if attacked {
			d.Transform = attack
		}
		runRng := simrand.New(54)
		for d.Version() < updates {
			u := runRng.Intn(len(users))
			tau := staleness(runRng, u, nil)
			d.Push(u, tau, data.SampleBatch(runRng, users[u], min(pop.batch, len(users[u]))))
		}
		return d.Evaluate(pop.test)
	}

	rep.addLine("20%% Byzantine workers (sign-flip ×5), K=5 windows, D1 staleness, live server:")
	for _, agg := range []struct {
		spec  string
		label string
	}{
		{"mean", "Mean"},
		{"median", "CoordinateMedian"},
		{"trimmed(1)", "TrimmedMean(1)"},
		{"krum(1)", "Krum(f=1)"},
	} {
		clean := run(agg.spec, false)
		dirty := run(agg.spec, true)
		rep.addLine("%-18s clean %.3f | under attack %.3f", agg.label, clean, dirty)
		rep.setValue("clean-"+agg.label, clean)
		rep.setValue("attacked-"+agg.label, dirty)
	}
	rep.addLine("expected shape: Mean collapses under attack; robust rules hold")
	return rep
}
