package sched

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fleet/internal/metrics"
	"fleet/internal/protocol"
)

// Reject reasons of the built-in controller policies. min-batch and
// similarity keep the exact strings the pre-sched server returned, so
// workers matching on Reason keep working.
const (
	ReasonBatchBelowThreshold = "mini-batch size below threshold"
	ReasonSimilarityExceeded  = "similarity above threshold"
	ReasonQuotaExceeded       = "per-worker task quota exceeded"
)

// Profiler is the slice of I-Prof a batch-sizing policy needs: the largest
// mini-batch size the device can run within the SLO. *iprof.IProf
// implements it.
type Profiler interface {
	BatchSize(deviceModel string, features []float64, slo float64) int
}

// iprofTime prescribes the I-Prof computation-time batch size (§2.2). It
// *sets* the batch (the prediction replaces the default, and may exceed
// it), matching the legacy controller.
type iprofTime struct {
	prof Profiler
	slo  float64
}

// IProfTime builds the computation-time batch-sizing policy. A nil
// profiler or non-positive SLO makes it a pass-through, mirroring the
// legacy ServerConfig gating.
func IProfTime(prof Profiler, slo float64) AdmissionPolicy {
	return &iprofTime{prof: prof, slo: slo}
}

func (p *iprofTime) Name() string { return fmt.Sprintf("iprof-time(%g)", p.slo) }

func (p *iprofTime) Admit(_ context.Context, req *TaskRequest) (Decision, error) {
	if p.prof == nil || p.slo <= 0 {
		return Accept(req.BatchSize), nil
	}
	// A request without features cannot be profiled: surface a structured
	// invalid_argument at the boundary instead of letting the predictor
	// panic on the length mismatch (a 500 before this check existed).
	if len(req.Wire.TimeFeatures) == 0 {
		return Decision{}, protocol.Errorf(protocol.CodeInvalidArgument,
			"%s: TaskRequest.time_features is required for I-Prof batch sizing", p.Name())
	}
	return Accept(p.prof.BatchSize(req.Wire.DeviceModel, req.Wire.TimeFeatures, p.slo)), nil
}

// iprofEnergy prescribes the I-Prof energy batch size. It only ever
// *lowers* the batch (min with the incoming size): both SLOs must hold,
// matching the legacy controller.
type iprofEnergy struct {
	prof Profiler
	slo  float64
}

// IProfEnergy builds the energy batch-sizing policy. A nil profiler or
// non-positive SLO makes it a pass-through.
func IProfEnergy(prof Profiler, slo float64) AdmissionPolicy {
	return &iprofEnergy{prof: prof, slo: slo}
}

func (p *iprofEnergy) Name() string { return fmt.Sprintf("iprof-energy(%g)", p.slo) }

func (p *iprofEnergy) Admit(_ context.Context, req *TaskRequest) (Decision, error) {
	if p.prof == nil || p.slo <= 0 {
		return Accept(req.BatchSize), nil
	}
	if len(req.Wire.EnergyFeatures) == 0 {
		return Decision{}, protocol.Errorf(protocol.CodeInvalidArgument,
			"%s: TaskRequest.energy_features is required for I-Prof batch sizing", p.Name())
	}
	batch := req.BatchSize
	if e := p.prof.BatchSize(req.Wire.DeviceModel, req.Wire.EnergyFeatures, p.slo); e < batch {
		batch = e
	}
	return Accept(batch), nil
}

// minBatch rejects tasks whose prescribed batch fell below the threshold:
// the device is too weak to contribute usefully within its SLO, so no
// energy is spent on it (§2.2).
type minBatch struct{ n int }

// MinBatch builds the size-threshold policy; n <= 0 is a pass-through.
func MinBatch(n int) AdmissionPolicy { return &minBatch{n: n} }

func (p *minBatch) Name() string { return fmt.Sprintf("min-batch(%d)", p.n) }

func (p *minBatch) Admit(_ context.Context, req *TaskRequest) (Decision, error) {
	if p.n > 0 && req.BatchSize < p.n {
		return Reject(p.Name(), ReasonBatchBelowThreshold), nil
	}
	return Accept(req.BatchSize), nil
}

// similarity rejects tasks whose label distribution is too close to
// LD_global: the data is redundant, the gradient would teach the model
// nothing new (§2.3).
type similarity struct{ max float64 }

// Similarity builds the similarity-threshold policy; max <= 0 is a
// pass-through.
func Similarity(max float64) AdmissionPolicy { return &similarity{max: max} }

func (p *similarity) Name() string { return fmt.Sprintf("similarity(%g)", p.max) }

func (p *similarity) Admit(_ context.Context, req *TaskRequest) (Decision, error) {
	if p.max > 0 && req.Similarity > p.max {
		return Reject(p.Name(), ReasonSimilarityExceeded), nil
	}
	return Accept(req.BatchSize), nil
}

// perWorkerQuota admits at most n tasks per worker per fixed window — the
// admission-level complement of the transport RateLimit interceptor: it
// bounds how often one device is *scheduled*, not how often it may knock.
type perWorkerQuota struct {
	n      int
	window time.Duration
	now    func() time.Time

	mu        sync.Mutex
	buckets   map[int]*quotaBucket
	lastSweep time.Time
}

type quotaBucket struct {
	start time.Time
	count int
}

// PerWorkerQuota builds the quota policy: n admits per worker per window.
// n <= 0 or window <= 0 is a pass-through. The policy is stateful (one
// bucket per worker id): build one per server.
func PerWorkerQuota(n int, window time.Duration) AdmissionPolicy {
	return PerWorkerQuotaClock(n, window, nil)
}

// PerWorkerQuotaClock is PerWorkerQuota with an injected clock — what
// deterministic harnesses (internal/loadgen's virtual time) use so quota
// decisions replay bit-for-bit instead of reading the wall clock. A nil
// now uses time.Now.
func PerWorkerQuotaClock(n int, window time.Duration, now func() time.Time) AdmissionPolicy {
	if now == nil {
		now = time.Now
	}
	return &perWorkerQuota{n: n, window: window, now: now, buckets: map[int]*quotaBucket{}}
}

func (p *perWorkerQuota) Name() string {
	return fmt.Sprintf("per-worker-quota(%d/%s)", p.n, p.window)
}

func (p *perWorkerQuota) Admit(_ context.Context, req *TaskRequest) (Decision, error) {
	if p.n <= 0 || p.window <= 0 {
		return Accept(req.BatchSize), nil
	}
	now := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	// WorkerID is an unauthenticated client-supplied integer, so the
	// bucket map must not grow with every id ever seen: once per window,
	// sweep out buckets whose window has lapsed (they carry no quota
	// state a fresh bucket wouldn't). Amortized O(1) per admit.
	if now.Sub(p.lastSweep) >= p.window {
		for id, b := range p.buckets {
			if now.Sub(b.start) >= p.window {
				delete(p.buckets, id)
			}
		}
		p.lastSweep = now
	}
	b := p.buckets[req.Wire.WorkerID]
	if b == nil {
		b = &quotaBucket{start: now}
		p.buckets[req.Wire.WorkerID] = b
	}
	if now.Sub(b.start) >= p.window {
		b.start, b.count = now, 0
	}
	if b.count >= p.n {
		return Reject(p.Name(), ReasonQuotaExceeded), nil
	}
	b.count++
	return Accept(req.BatchSize), nil
}

// Controller is the percentile form of the §2.4 controller, as evaluated in
// §3.5 (Figure 15): where min-batch and similarity compare against absolute
// thresholds, it compares each task against the history of tasks it has
// seen. A task is rejected when its prescribed mini-batch size falls below
// the SizePercentile of past sizes (noisy, low utility), or when its
// similarity exceeds the (100−SimilarityPercentile)-th percentile of past
// similarities (the most redundant), before any gradient is computed. It
// sits after whatever policy prescribes the batch; its thresholds depend on
// the deployment's history, so it is built in Go and has no spec name. The
// zero value admits everything.
type Controller struct {
	// SizePercentile in [0, 100); 0 disables size pruning.
	SizePercentile float64
	// SimilarityPercentile in [0, 100); 0 disables similarity pruning.
	SimilarityPercentile float64
	// MinHistory is how many tasks must be observed before pruning kicks
	// in (default 20).
	MinHistory int

	mu    sync.Mutex
	sizes []float64
	sims  []float64
}

// Name implements AdmissionPolicy.
func (c *Controller) Name() string {
	return fmt.Sprintf("controller(size-pct=%g,similarity-pct=%g)", c.SizePercentile, c.SimilarityPercentile)
}

// Admit implements AdmissionPolicy. The task's values enter the history
// whether or not it passes.
func (c *Controller) Admit(_ context.Context, req *TaskRequest) (Decision, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	minHist := c.MinHistory
	if minHist <= 0 {
		minHist = 20
	}
	d := Accept(req.BatchSize)
	if len(c.sizes) >= minHist {
		switch {
		case c.SizePercentile > 0 && float64(req.BatchSize) < metrics.Percentile(c.sizes, c.SizePercentile):
			d = Reject(c.Name(), ReasonBatchBelowThreshold)
		case c.SimilarityPercentile > 0 && req.Similarity > metrics.Percentile(c.sims, 100-c.SimilarityPercentile):
			d = Reject(c.Name(), ReasonSimilarityExceeded)
		}
	}
	c.sizes = append(c.sizes, float64(req.BatchSize))
	c.sims = append(c.sims, req.Similarity)
	return d, nil
}
