package experiments

import (
	"fmt"
	"math/rand"

	"fleet/internal/core"
	"fleet/internal/learning"
	"fleet/internal/sched"
)

func fig15(scale Scale) *Report {
	rep := &Report{}
	pop := mnistNonIID(scale, 151)

	// Mini-batch sizes follow N(100, 33), the shape of I-Prof's output
	// distribution (Figure 12(d)); scaled down at CI size.
	mu, sigma := 100.0, 33.0
	if scale == ScaleCI {
		mu, sigma = 20.0, 7.0
	}
	batchSampler := func(rng *rand.Rand) int {
		n := int(rng.NormFloat64()*sigma + mu)
		if n < 1 {
			n = 1
		}
		return n
	}

	// Fixed request budget (the paper's x-axis is "number of requests"):
	// pruned requests are wasted opportunities, so aggressive thresholds
	// trade accuracy for saved computation.
	run := func(sizePct, simPct float64) (float64, int, int) {
		cfg := pop.config(learning.SSGD{}, 52, nil)
		cfg.BatchSizeSampler, cfg.RequestBudget = batchSampler, pop.steps
		cfg.Controller = &sched.Controller{SizePercentile: sizePct, SimilarityPercentile: simPct}
		res := core.RunAsync(cfg, pop.users, pop.test)
		return res.FinalAccuracy, res.TasksExecuted, res.TasksRejected
	}

	baseAcc, baseTasks, _ := run(0, 0)
	rep.addLine("no pruning: accuracy %.3f, %d tasks", baseAcc, baseTasks)
	rep.setValue("base", baseAcc)

	for _, sweep := range []struct {
		key, title string
		size, sim  float64 // 1 on the threshold the sweep varies
	}{
		{"size", "threshold on mini-batch size (drop smallest):", 1, 0},
		{"sim", "threshold on similarity (drop most similar):", 0, 1},
	} {
		rep.addLine(sweep.title)
		for _, pct := range []float64{5, 10, 20, 40, 60, 80} {
			acc, tasks, rejected := run(sweep.size*pct, sweep.sim*pct)
			pruned := float64(rejected) / float64(tasks+rejected)
			rep.addLine("  thres=%2.0f: accuracy %.3f (Δ %+0.3f), executed %d, pruned %d (%.1f%%)",
				pct, acc, acc-baseAcc, tasks, rejected, pruned*100)
			rep.setValue(fmt.Sprintf("%s%.0f", sweep.key, pct), acc)
			rep.setValue(fmt.Sprintf("%s%.0f-pruned", sweep.key, pct), pruned)
		}
	}
	rep.addLine("paper: dropping ≤39%% smallest batches costs ≤2.2%% accuracy;")
	rep.addLine("dropping 17%% most-similar costs 4.8%%")
	return rep
}
