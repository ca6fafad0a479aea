package experiments

import (
	"fleet/internal/core"
	"fleet/internal/learning"
	"fleet/internal/metrics"
)

// traceStaleness validates that the controlled-staleness conclusions
// (Figure 8) carry over to emergent staleness: an event-driven simulation
// where staleness arises from simulated device computation, network
// latency and think time — the dynamics the real middleware experiences.
func traceStaleness(scale Scale) *Report {
	rep := &Report{}
	pop := mnistNonIID(scale, 17)
	updates := 800
	if scale == ScaleFull {
		updates = 4000
	}

	run := func(alg learning.Algorithm) *core.TraceResult {
		return core.RunTrace(core.TraceConfig{
			Arch: pop.arch, Algorithm: alg, LearningRate: pop.lr, BatchSize: pop.batch,
			Updates: updates, EvalEvery: pop.evalEvery,
			NetworkMinSec: 1.1, NetworkMeanSec: 2.4, // 4G/3G mix (§3.1)
			ThinkTimeSec: 4, DropoutProb: 0.05,
			Seed: 53,
		}, pop.users, pop.test)
	}

	ada := run(learning.NewAdaSGD(adaConfig()))
	dyn := run(learning.DynSGD{})
	fed := run(learning.FedAvg{})

	rep.addLine("emergent staleness from device+network latency (no injection), 5%% dropout:")
	rep.addLine("mean emergent staleness: %.2f (AdaSGD run), simulated span %.0fs",
		ada.MeanStaleness, ada.WallClockSec)
	rep.addLine("AdaSGD final %.3f | DynSGD final %.3f | FedAvg final %.3f",
		ada.Accuracy.FinalY(), dyn.Accuracy.FinalY(), fed.Accuracy.FinalY())
	st := make([]float64, len(ada.Staleness))
	for i, v := range ada.Staleness {
		st[i] = float64(v)
	}
	rep.addLine("staleness p50/p99/max: %.0f / %.0f / %.0f",
		metrics.Median(st), metrics.Percentile(st, 99), metrics.Max(st))
	rep.setValue("ada", ada.Accuracy.FinalY())
	rep.setValue("dyn", dyn.Accuracy.FinalY())
	rep.setValue("fed", fed.Accuracy.FinalY())
	rep.setValue("mean-staleness", ada.MeanStaleness)
	return rep
}
