package core

import (
	"context"
	"fmt"

	"fleet/internal/data"
	"fleet/internal/metrics"
	"fleet/internal/nn"
	"fleet/internal/pipeline"
	"fleet/internal/protocol"
	"fleet/internal/sched"
	"fleet/internal/server"
	"fleet/internal/simrand"
)

// maxStaleness bounds how far back a controlled-staleness task may reach:
// the driver retains this many past snapshots beside the current one.
const maxStaleness = 256

// prescribe heads the run's admission chain, in the seat iprof-time has on
// a live server: it sets the mini-batch size of worker u's task, given the
// server's default.
type prescribe func(u, batch int) int

func (prescribe) Name() string { return "prescribe" }

func (p prescribe) Admit(_ context.Context, req *sched.TaskRequest) (sched.Decision, error) {
	return sched.Accept(p(req.Wire.WorkerID, req.BatchSize)), nil
}

// ServedAsync is RunAsync on the serving core (transitional name).
func ServedAsync(cfg AsyncConfig, users [][]nn.Sample, test []nn.Sample) *AsyncResult {
	if cfg.LRSchedule != nil || cfg.Aggregator != nil || cfg.MaxStaleness != 0 {
		panic("core: ServedAsync: engine-only field set")
	}
	var ctrl *sched.Controller
	if c := cfg.Controller; c != nil {
		ctrl = &sched.Controller{SizePercentile: c.SizePercentile, SimilarityPercentile: c.SimilarityPercentile, MinHistory: c.MinHistory}
	}
	var pipe *pipeline.Pipeline
	if cfg.DP != nil {
		var err error
		pipe, err = pipeline.Build(fmt.Sprintf("dp(%g,%g),staleness", cfg.DP.ClipNorm, cfg.DP.NoiseMultiplier), "mean",
			pipeline.BuildOptions{Algorithm: cfg.Algorithm, Seed: cfg.Seed})
		if err != nil {
			panic(err)
		}
	}
	return servedAsync(cfg, pipe, ctrl, users, test)
}

func servedAsync(cfg AsyncConfig, pipe *pipeline.Pipeline, ctrl *sched.Controller, users [][]nn.Sample, test []nn.Sample) *AsyncResult {
	if len(users) == 0 {
		panic("core: RunAsync needs at least one user")
	}
	if cfg.Steps <= 0 {
		panic("core: non-positive step count")
	}
	staleness := cfg.Staleness
	if staleness == nil {
		staleness = ZeroStaleness()
	}
	rng := simrand.New(cfg.Seed)
	classes := cfg.Arch.Classes()
	userLabels := make([][]int, len(users))
	for u := range users {
		userLabels[u] = data.LabelCounts(users[u], classes)
	}

	admission := []sched.AdmissionPolicy{prescribe(func(u, batch int) int {
		if cfg.BatchSizeSampler != nil {
			batch = cfg.BatchSizeSampler(rng)
		}
		return max(1, min(batch, len(users[u])))
	})}
	if ctrl != nil {
		admission = append(admission, ctrl)
	}
	d := NewDriver(server.Config{
		Arch: cfg.Arch, Algorithm: cfg.Algorithm, LearningRate: cfg.LearningRate, K: cfg.K,
		Pipeline: pipe, Admission: sched.NewChain(admission...),
		DefaultBatchSize: cfg.BatchSize, Seed: cfg.Seed + 1,
	}, maxStaleness+1)
	d.Transform = cfg.GradientTransform

	res := &AsyncResult{ClassAccuracy: map[int]*metrics.Series{}}
	res.Accuracy.Name = cfg.Algorithm.Name()
	for _, c := range cfg.TrackClasses {
		res.ClassAccuracy[c] = &metrics.Series{Name: fmt.Sprintf("%s-class%d", cfg.Algorithm.Name(), c)}
	}
	evaluate := func(step int) {
		res.FinalAccuracy = d.Evaluate(test)
		res.Accuracy.Add(float64(step), res.FinalAccuracy)
		for _, c := range cfg.TrackClasses {
			res.ClassAccuracy[c].Add(float64(step), d.net.ClassAccuracy(test, c))
		}
	}

	for requests := 0; d.Version() < cfg.Steps; requests++ {
		if cfg.RequestBudget > 0 && requests >= cfg.RequestBudget {
			break
		}
		// Figure 2, steps 1–4: the worker announces its label distribution
		// and the admission chain prescribes its batch or prunes the task.
		u := rng.Intn(len(users))
		task, err := d.srv.RequestTask(context.TODO(), &protocol.TaskRequest{WorkerID: u, LabelCounts: userLabels[u]})
		if err != nil {
			panic("core: " + err.Error())
		}
		if !task.Accepted {
			res.TasksRejected++
			continue
		}
		// Step 5, at the staleness this task drew.
		tau := staleness(rng, u, userLabels[u])
		t := d.Version()
		ack := d.Push(u, tau, data.SampleBatch(rng, users[u], task.BatchSize))
		res.TasksExecuted++
		res.Scales = append(res.Scales, ack.Scale)
		res.Staleness = append(res.Staleness, ack.Staleness)
		if v := ack.NewVersion; v > t && cfg.EvalEvery > 0 && v%cfg.EvalEvery == 0 {
			evaluate(v)
		}
	}
	if cfg.EvalEvery <= 0 || cfg.Steps%cfg.EvalEvery != 0 {
		evaluate(cfg.Steps)
	}
	res.Params, _ = d.srv.Model()
	return res
}
