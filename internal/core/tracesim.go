package core

import (
	"container/heap"
	"fmt"

	"fleet/internal/data"
	"fleet/internal/device"
	"fleet/internal/learning"
	"fleet/internal/metrics"
	"fleet/internal/nn"
	"fleet/internal/server"
	"fleet/internal/simrand"
)

// TraceConfig drives the event-driven simulation: unlike AsyncConfig's
// controlled staleness (§3.2's methodology), here staleness *emerges* from
// simulated device computation latency, network latency and think time —
// the dynamics the real middleware experiences. Used to validate that the
// controlled-staleness conclusions carry over.
type TraceConfig struct {
	// Arch is the model architecture.
	Arch nn.Arch
	// Algorithm scales each gradient.
	Algorithm learning.Algorithm
	// LearningRate is γ of Equation 3.
	LearningRate float64
	// BatchSize is the worker mini-batch size.
	BatchSize int
	// Updates is the number of model updates to run.
	Updates int
	// EvalEvery evaluates test accuracy every this many updates.
	EvalEvery int
	// NetworkMinSec/NetworkMeanSec parameterize the shifted-exponential
	// network latency added to each round trip (§3.1 estimates 1.1 s for
	// 4G and 3.8 s for 3G).
	NetworkMinSec  float64
	NetworkMeanSec float64
	// ThinkTimeSec is the mean idle time between a worker's consecutive
	// tasks (exponential); it controls how many tasks are in flight.
	ThinkTimeSec float64
	// DropoutProb is the probability that a computed result never arrives
	// (user disconnects) — the paper notes end-to-end latencies can become
	// infinite.
	DropoutProb float64
	// Seed drives all randomness.
	Seed int64
}

// TraceResult is the outcome of an event-driven run.
type TraceResult struct {
	// Accuracy is test accuracy vs. model update.
	Accuracy metrics.Series
	// Staleness holds the emergent staleness of every applied gradient.
	Staleness []int
	// MeanStaleness summarizes it.
	MeanStaleness float64
	// WallClockSec is the simulated duration of the run.
	WallClockSec float64
	// Dropped counts results lost to disconnects.
	Dropped int
	// Params is the trained model: the final parameter vector.
	Params []float64
}

// taskEvent is one in-flight learning task completing at Time.
type taskEvent struct {
	Time        float64
	Worker      int
	PullVersion int
	// Compute marks worker-becomes-ready events (vs. gradient arrivals).
	Ready bool
}

type eventQueue []taskEvent

func (q eventQueue) Len() int            { return len(q) }
func (q eventQueue) Less(i, j int) bool  { return q[i].Time < q[j].Time }
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(taskEvent)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	ev := old[n-1]
	*q = old[:n-1]
	return ev
}

// RunTrace executes an event-driven training run over the given user
// partitions and test set. The device and network simulation decides when
// each gradient arrives; the server sees it pushed against the version its
// worker pulled. A configuration the server refuses panics.
func RunTrace(cfg TraceConfig, users [][]nn.Sample, test []nn.Sample) *TraceResult {
	if len(users) == 0 {
		panic("core: RunTrace needs at least one user")
	}
	if cfg.Updates <= 0 {
		panic("core: RunTrace needs positive Updates")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 20
	}
	if cfg.ThinkTimeSec <= 0 {
		cfg.ThinkTimeSec = 5
	}
	rng := simrand.New(cfg.Seed)

	// Worker i runs catalogue phone i, cyclically.
	models := device.Catalogue()
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

// String summarizes the trace result.
func (r *TraceResult) String() string {
	return fmt.Sprintf("trace: %d updates in %.0fs simulated, mean staleness %.2f, %d dropped, final accuracy %.3f",
		len(r.Staleness), r.WallClockSec, r.MeanStaleness, r.Dropped, r.Accuracy.FinalY())
}
