// Package core implements FLeet's server-side orchestration: the
// asynchronous training engine that glues the aggregation algorithms
// (AdaSGD and baselines), the similarity tracker, the controller thresholds
// and optional differential privacy into one reproducible simulation loop.
//
// The engine uses controlled staleness exactly like the paper's evaluation
// (§3.2): every gradient is computed against a past model snapshot whose
// age is drawn from a configurable staleness distribution, so algorithm
// comparisons are precise and bit-for-bit reproducible.
package core

import (
	"fmt"
	"math/rand"

	"fleet/internal/data"
	"fleet/internal/dp"
	"fleet/internal/learning"
	"fleet/internal/metrics"
	"fleet/internal/nn"
	"fleet/internal/robust"
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
		v := int(simrand.Gaussian(rng, mu, sigma) + 0.5)
		if v < 0 {
			v = 0
		}
		return v
	}
}

// ZeroStaleness is the synchronous (SSGD) regime.
func ZeroStaleness() StalenessSampler {
	return func(*rand.Rand, int, []int) int { return 0 }
}

// AsyncConfig parameterizes one asynchronous training run.
type AsyncConfig struct {
	// Arch is the model architecture.
	Arch nn.Arch
	// Algorithm scales each gradient (AdaSGD, DynSGD, FedAvg, SSGD).
	Algorithm learning.Algorithm
	// LearningRate is γ of Equation 3.
	LearningRate float64
	// LRSchedule, when non-nil, overrides LearningRate with a per-step γt.
	LRSchedule learning.LRSchedule
	// BatchSize is the worker mini-batch size (paper default: 100). When
	// BatchSizeSampler is set it overrides this per task.
	BatchSize int
	// BatchSizeSampler, when non-nil, draws a per-task mini-batch size
	// (Figure 15 uses N(100, 33)).
	BatchSizeSampler func(rng *rand.Rand) int
	// Steps is the number of model updates to perform.
	Steps int
	// EvalEvery evaluates test accuracy every this many updates (0: only
	// at the end).
	EvalEvery int
	// Staleness draws each task's staleness; nil means zero staleness.
	Staleness StalenessSampler
	// K aggregates this many gradients per model update (Equation 3);
	// 0 or 1 means per-gradient updates.
	K int
	// Aggregator, when non-nil, combines the K scaled gradients of a
	// window with a (possibly Byzantine-resilient) rule instead of
	// summing them; the model then moves by γt × Aggregate(window).
	Aggregator robust.Aggregator
	// GradientTransform, when non-nil, rewrites each computed gradient
	// before it reaches the server — the hook the Byzantine experiments
	// use to model adversarial workers.
	GradientTransform func(workerID int, grad []float64) []float64
	// DP enables differentially private gradient perturbation.
	DP *dp.Config
	// Controller, when non-nil, may reject learning tasks before execution.
	Controller *Controller
	// TrackClasses lists class ids whose per-class test accuracy is
	// recorded (Figure 9 tracks class 0).
	TrackClasses []int
	// MaxStaleness bounds the model-snapshot ring buffer (default 256).
	MaxStaleness int
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

// RunAsync executes one asynchronous training run over the given user
// partitions and test set.
func RunAsync(cfg AsyncConfig, users [][]nn.Sample, test []nn.Sample) *AsyncResult {
	if cfg.Algorithm == nil {
		panic("core: AsyncConfig.Algorithm is required")
	}
	if len(users) == 0 {
		panic("core: RunAsync needs at least one user")
	}
	schedule := cfg.LRSchedule
	if schedule == nil {
		if cfg.LearningRate <= 0 {
			panic("core: non-positive learning rate")
		}
		schedule = learning.ConstantLR(cfg.LearningRate)
	}
	if cfg.Steps <= 0 {
		panic("core: non-positive step count")
	}
	k := cfg.K
	if k <= 0 {
		k = 1
	}
	maxStale := cfg.MaxStaleness
	if maxStale <= 0 {
		maxStale = 256
	}
	staleness := cfg.Staleness
	if staleness == nil {
		staleness = ZeroStaleness()
	}
	rng := simrand.New(cfg.Seed)

	global := cfg.Arch.Build(simrand.New(cfg.Seed + 1))
	worker := cfg.Arch.Build(simrand.New(cfg.Seed + 1))
	classes := cfg.Arch.Classes()

	labelTracker := learning.NewLabelTracker(classes)
	userLabels := make([][]int, len(users))
	for u := range users {
		userLabels[u] = data.LabelCounts(users[u], classes)
	}

	// Model snapshot ring buffer: snapshots[t % cap] is the param vector
	// after update t.
	snapCap := maxStale + 1
	snapshots := make([][]float64, snapCap)
	snapshots[0] = global.ParamVector()

	res := &AsyncResult{ClassAccuracy: map[int]*metrics.Series{}}
	res.Accuracy.Name = cfg.Algorithm.Name()
	for _, c := range cfg.TrackClasses {
		res.ClassAccuracy[c] = &metrics.Series{Name: fmt.Sprintf("%s-class%d", cfg.Algorithm.Name(), c)}
	}

	evaluate := func(step int) {
		acc := global.Accuracy(test)
		res.Accuracy.Add(float64(step), acc)
		res.FinalAccuracy = acc
		for _, c := range cfg.TrackClasses {
			res.ClassAccuracy[c].Add(float64(step), global.ClassAccuracy(test, c))
		}
	}

	pending := 0
	requests := 0
	accumGrad := make([]float64, global.ParamCount())
	var window [][]float64
	for t := 0; t < cfg.Steps; {
		if cfg.RequestBudget > 0 && requests >= cfg.RequestBudget {
			break
		}
		requests++
		u := rng.Intn(len(users))
		batchSize := cfg.BatchSize
		if cfg.BatchSizeSampler != nil {
			batchSize = cfg.BatchSizeSampler(rng)
		}
		if batchSize < 1 {
			batchSize = 1
		}
		if batchSize > len(users[u]) {
			batchSize = len(users[u])
		}

		// Admission uses the similarity of the worker's announced local
		// label distribution (request time, Figure 2 step 3).
		simUser := labelTracker.Similarity(userLabels[u])
		if cfg.Controller != nil && !cfg.Controller.Admit(batchSize, simUser) {
			res.TasksRejected++
			continue
		}

		// Draw the task's staleness and fetch the matching snapshot.
		tau := staleness(rng, u, userLabels[u])
		if tau > t {
			tau = t
		}
		if tau > maxStale {
			tau = maxStale
		}
		worker.SetParams(snapshots[(t-tau)%snapCap])

		batch := data.SampleBatch(rng, users[u], batchSize)
		grad, _ := worker.Gradient(batch)
		if cfg.GradientTransform != nil {
			grad = cfg.GradientTransform(u, grad)
		}
		if cfg.DP != nil {
			dpCfg := *cfg.DP
			dpCfg.BatchSize = batchSize
			dp.Perturb(dpCfg, rng, grad)
		}
		res.TasksExecuted++

		// The boost uses the similarity of the actual mini-batch at
		// gradient-apply time (Figure 2 step 5), and LD_global accumulates
		// label mass weighted by the applied scale, so labels the model
		// never effectively incorporated keep their novelty.
		batchCounts := data.LabelCounts(batch, classes)
		simBatch := labelTracker.Similarity(batchCounts)
		meta := learning.GradientMeta{
			Staleness:  tau,
			Similarity: simBatch,
			BatchSize:  batchSize,
			WorkerID:   u,
		}
		scale := cfg.Algorithm.Scale(meta)
		cfg.Algorithm.Observe(meta)
		labelTracker.RecordWeighted(batchCounts, cfg.Algorithm.AbsorbWeight(meta))
		res.Scales = append(res.Scales, scale)
		res.Staleness = append(res.Staleness, tau)

		if cfg.Aggregator != nil {
			scaled := make([]float64, len(grad))
			for i, g := range grad {
				scaled[i] = scale * g
			}
			window = append(window, scaled)
		} else {
			for i, g := range grad {
				accumGrad[i] += scale * g
			}
		}
		pending++
		if pending < k {
			continue
		}

		// Model update (Equation 3) with the scheduled rate γt.
		if cfg.Aggregator != nil {
			// The window is non-empty (pending == k) with equal-length
			// gradients by construction, so an error here is a programming
			// bug in the aggregator, not a runtime condition.
			dir, err := cfg.Aggregator.Aggregate(window)
			if err != nil {
				panic(fmt.Sprintf("core: %s on a well-formed window: %v", cfg.Aggregator.Name(), err))
			}
			global.ApplyGradient(dir, schedule(t))
			window = window[:0]
		} else {
			global.ApplyGradient(accumGrad, schedule(t))
			for i := range accumGrad {
				accumGrad[i] = 0
			}
		}
		pending = 0
		t++
		snapshots[t%snapCap] = global.ParamVector()

		if cfg.EvalEvery > 0 && t%cfg.EvalEvery == 0 {
			evaluate(t)
		}
	}
	if cfg.EvalEvery <= 0 || cfg.Steps%cfg.EvalEvery != 0 {
		evaluate(cfg.Steps)
	}
	res.Params = global.ParamVector()
	return res
}
