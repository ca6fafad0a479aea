package core

import (
	"container/heap"

	"fleet/internal/data"
	"fleet/internal/device"
	"fleet/internal/nn"
	"fleet/internal/server"
	"fleet/internal/simrand"
)

// ServedTrace is RunTrace on the serving core (transitional name).
func ServedTrace(cfg TraceConfig, users [][]nn.Sample, test []nn.Sample) *TraceResult {
	if cfg.Algorithm == nil {
		panic("core: TraceConfig.Algorithm is required")
	}
	if len(users) == 0 {
		panic("core: RunTrace needs at least one user")
	}
	if cfg.Updates <= 0 || cfg.LearningRate <= 0 {
		panic("core: RunTrace needs positive Updates and LearningRate")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 20
	}
	if cfg.ThinkTimeSec <= 0 {
		cfg.ThinkTimeSec = 5
	}
	models := cfg.Devices
	if len(models) == 0 {
		models = device.Catalogue()
	}
	rng := simrand.New(cfg.Seed)

	devices := make([]*device.Device, len(users))
	for i := range devices {
		devices[i] = device.New(models[i%len(models)], simrand.New(cfg.Seed+100+int64(i)))
	}

	// Emergent staleness can exceed any fixed bound under churn: a gradient
	// staler than the ring is deep clamps to the oldest retained snapshot.
	d := NewDriver(server.Config{
		Arch: cfg.Arch, Algorithm: cfg.Algorithm, LearningRate: cfg.LearningRate, Seed: cfg.Seed + 1,
	}, 1024)

	res := &TraceResult{}
	res.Accuracy.Name = cfg.Algorithm.Name() + "-trace"

	q := &eventQueue{}
	for w := range users {
		heap.Push(q, taskEvent{Time: rng.Float64() * cfg.ThinkTimeSec, Worker: w, Ready: true})
	}

	now := 0.0
	stSum := 0.0
	for d.Version() < cfg.Updates && q.Len() > 0 {
		ev := heap.Pop(q).(taskEvent)
		now = ev.Time

		if ev.Ready {
			// Worker pulls the current model and starts computing.
			w := ev.Worker
			devices[w].Idle(cfg.ThinkTimeSec / 2)
			exec := devices[w].Execute(cfg.BatchSize)
			net := simrand.Exponential(rng, cfg.NetworkMinSec, cfg.NetworkMeanSec)
			heap.Push(q, taskEvent{
				Time:        now + exec.LatencySec + net,
				Worker:      w,
				PullVersion: d.Version(),
			})
			continue
		}

		// Gradient arrival.
		w := ev.Worker
		if cfg.DropoutProb > 0 && rng.Float64() < cfg.DropoutProb {
			res.Dropped++
		} else {
			batch := data.SampleBatch(rng, users[w], min(cfg.BatchSize, len(users[w])))
			ack := d.Push(w, d.Version()-ev.PullVersion, batch)
			res.Staleness = append(res.Staleness, ack.Staleness)
			stSum += float64(ack.Staleness)
			if v := ack.NewVersion; cfg.EvalEvery > 0 && v%cfg.EvalEvery == 0 {
				res.Accuracy.Add(float64(v), d.Evaluate(test))
			}
		}

		// Worker thinks, then becomes ready again.
		think := rng.ExpFloat64() * cfg.ThinkTimeSec
		heap.Push(q, taskEvent{Time: now + think, Worker: w, Ready: true})
	}

	if v := d.Version(); cfg.EvalEvery <= 0 || v%cfg.EvalEvery != 0 {
		res.Accuracy.Add(float64(v), d.Evaluate(test))
	}
	res.WallClockSec = now
	res.Params, _ = d.srv.Model()
	if len(res.Staleness) > 0 {
		res.MeanStaleness = stSum / float64(len(res.Staleness))
	}
	return res
}
