package core

import (
	"context"
	"fmt"
	"math/rand"

	"fleet/internal/data"
	"fleet/internal/learning"
	"fleet/internal/metrics"
	"fleet/internal/nn"
	"fleet/internal/pipeline"
	"fleet/internal/protocol"
	"fleet/internal/sched"
	"fleet/internal/server"
	"fleet/internal/simrand"
)

// StalenessSampler draws the staleness of one learning task. workerID and
// the worker's label counts allow experiment-specific rules (e.g. Figure 9
// makes every class-0 worker a deep straggler).
type StalenessSampler func(rng *rand.Rand, workerID int, labelCounts []int) int

// GaussianStaleness returns the paper's controlled staleness sampler:
// τ ∼ N(mu, sigma) clamped to ≥ 0 (D1 = N(6,2), D2 = N(12,4) in §3.2).
func GaussianStaleness(mu, sigma float64) StalenessSampler {
	return func(rng *rand.Rand, _ int, _ []int) int {
		return max(0, int(simrand.Gaussian(rng, mu, sigma)+0.5))
	}
}

// AsyncConfig parameterizes one asynchronous training run.
type AsyncConfig struct {
	// Arch is the model architecture.
	Arch nn.Arch
	// Algorithm scales each gradient (AdaSGD, DynSGD, FedAvg, SSGD).
	Algorithm learning.Algorithm
	// LearningRate is γ of Equation 3.
	LearningRate float64
	// BatchSize is the worker mini-batch size (default 100, the paper's).
	// When BatchSizeSampler is set it overrides this per task.
	BatchSize int
	// BatchSizeSampler, when non-nil, draws a per-task mini-batch size
	// (Figure 15 uses N(100, 33)).
	BatchSizeSampler func(rng *rand.Rand) int
	// Steps is the number of model updates to perform.
	Steps int
	// EvalEvery evaluates test accuracy every this many updates (0: only
	// at the end).
	EvalEvery int
	// Staleness draws each task's staleness; nil means zero staleness. A
	// task reaches back at most 256 versions.
	Staleness StalenessSampler
	// K aggregates this many gradients per model update (Equation 3);
	// 0 or 1 means per-gradient updates.
	K int
	// Pipeline, when non-nil, is the server's update pipeline
	// (server.Config.Pipeline): DP, filters, a robust window aggregator.
	// Nil is staleness scaling by Algorithm into a mean window.
	Pipeline *pipeline.Pipeline
	// Controller, when non-nil, may reject learning tasks before execution.
	Controller *sched.Controller
	// TrackClasses lists class ids whose per-class test accuracy is
	// recorded (Figure 9 tracks class 0).
	TrackClasses []int
	// RequestBudget, when positive, bounds the total number of task
	// requests (admitted + rejected); the run ends when either the budget
	// or Steps is exhausted. Figure 15 fixes the request budget so pruning
	// trades accuracy for saved computations.
	RequestBudget int
	// Seed drives all randomness of the run.
	Seed int64
}

// AsyncResult is the output of one run.
type AsyncResult struct {
	// Accuracy is test accuracy vs. model step.
	Accuracy metrics.Series
	// ClassAccuracy holds per-class accuracy series for TrackClasses.
	ClassAccuracy map[int]*metrics.Series
	// Scales records the gradient scaling factor of every applied gradient
	// (Figure 9(b) plots their CDF).
	Scales []float64
	// Staleness records the staleness of every applied gradient.
	Staleness []int
	// TasksExecuted counts gradients computed; TasksRejected counts tasks
	// pruned by the controller before execution.
	TasksExecuted int
	TasksRejected int
	// FinalAccuracy is the last evaluated test accuracy.
	FinalAccuracy float64
	// Params is the trained model: the final parameter vector.
	Params []float64
}

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

// RunAsync executes one asynchronous training run over the given user
// partitions and test set: each task travels the server's RequestTask and
// PushGradient, the second at the staleness the task drew. A configuration
// the server refuses (no algorithm, a non-positive rate) panics.
func RunAsync(cfg AsyncConfig, users [][]nn.Sample, test []nn.Sample) *AsyncResult {
	if len(users) == 0 {
		panic("core: RunAsync needs at least one user")
	}
	if cfg.Steps <= 0 {
		panic("core: non-positive step count")
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
	if cfg.Controller != nil {
		admission = append(admission, cfg.Controller)
	}
	d := NewDriver(server.Config{
		Arch: cfg.Arch, Algorithm: cfg.Algorithm, LearningRate: cfg.LearningRate, K: cfg.K,
		Pipeline: cfg.Pipeline, Admission: sched.NewChain(admission...),
		DefaultBatchSize: cfg.BatchSize, Seed: cfg.Seed + 1,
	}, maxStaleness+1)

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
		tau := 0
		if cfg.Staleness != nil {
			tau = cfg.Staleness(rng, u, userLabels[u])
		}
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
