package experiments

import (
	"fmt"
	"math/rand"

	"fleet/internal/core"
	"fleet/internal/learning"
)

func fig15(scale Scale) *Report {
	rep := &Report{}
	users, test, arch, lr, _, steps, evalEvery := mnistNonIID(scale, 151)

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
		var ctrl *core.Controller
		if sizePct > 0 || simPct > 0 {
			ctrl = &core.Controller{SizePercentile: sizePct, SimilarityPercentile: simPct}
		}
		res := runAsync(core.AsyncConfig{
			Arch: arch, Algorithm: learning.SSGD{}, LearningRate: lr,
			BatchSizeSampler: batchSampler,
			Steps:            steps, RequestBudget: steps, EvalEvery: evalEvery, Seed: 52,
			Controller: ctrl,
		}, users, test)
		return res.FinalAccuracy, res.TasksExecuted, res.TasksRejected
	}

	baseAcc, baseTasks, _ := run(0, 0)
	rep.addLine("no pruning: accuracy %.3f, %d tasks", baseAcc, baseTasks)
	rep.setValue("base", baseAcc)

	rep.addLine("threshold on mini-batch size (drop smallest):")
	for _, pct := range []float64{5, 10, 20, 40, 60, 80} {
		acc, tasks, rejected := run(pct, 0)
		rep.addLine("  thres=%2.0f: accuracy %.3f (Δ %+0.3f), executed %d, pruned %d (%.1f%%)",
			pct, acc, acc-baseAcc, tasks, rejected,
			float64(rejected)/float64(tasks+rejected)*100)
		rep.setValue(fmt.Sprintf("size%.0f", pct), acc)
		rep.setValue(fmt.Sprintf("size%.0f-pruned", pct), float64(rejected)/float64(tasks+rejected))
	}
	rep.addLine("threshold on similarity (drop most similar):")
	for _, pct := range []float64{5, 10, 20, 40, 60, 80} {
		acc, tasks, rejected := run(0, pct)
		rep.addLine("  thres=%2.0f: accuracy %.3f (Δ %+0.3f), executed %d, pruned %d (%.1f%%)",
			pct, acc, acc-baseAcc, tasks, rejected,
			float64(rejected)/float64(tasks+rejected)*100)
		rep.setValue(fmt.Sprintf("sim%.0f", pct), acc)
		rep.setValue(fmt.Sprintf("sim%.0f-pruned", pct), float64(rejected)/float64(tasks+rejected))
	}
	rep.addLine("paper: dropping ≤39%% smallest batches costs ≤2.2%% accuracy;")
	rep.addLine("dropping 17%% most-similar costs 4.8%%")
	return rep
}
