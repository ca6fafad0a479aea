package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"sync/atomic"

	"fleet/internal/dp"
	"fleet/internal/learning"
)

// StalenessScale wraps a learning.Algorithm (AdaSGD, DynSGD, …) as a
// pipeline stage: it multiplies the gradient's Scale by the algorithm's
// Equation-3 factor for the gradient's staleness and label similarity. It
// does not touch the vector, so its position in the chain is free.
//
// The wrapped Algorithm must be safe for concurrent use (the Algorithm
// interface already requires this).
type StalenessScale struct {
	// Algo computes the per-gradient scaling factor.
	Algo learning.Algorithm
}

// NewStalenessScale wraps algo as a stage.
func NewStalenessScale(algo learning.Algorithm) (StalenessScale, error) {
	if algo == nil {
		return StalenessScale{}, fmt.Errorf("pipeline: staleness stage needs an Algorithm")
	}
	return StalenessScale{Algo: algo}, nil
}

// Name implements Stage.
func (s StalenessScale) Name() string { return "staleness(" + s.Algo.Name() + ")" }

// Process implements Stage.
func (s StalenessScale) Process(g *Gradient) error {
	g.Scale *= s.Algo.Scale(g.Meta)
	return nil
}

// DP is the differential-privacy stage: per-gradient L2 clipping plus
// Gaussian noise (dp.Perturb), with the noise std divided by the push's
// mini-batch size. dp.Perturb's *rand.Rand is not safe for concurrent use,
// so every push gets a generator of its own, seeded from (stage seed, push
// ordinal): concurrent pushes noise in parallel with no shared state beyond
// one atomic counter, and a serialized push sequence replays bit-for-bit —
// the n-th push through the stage always draws the same stream, whatever
// the GC or the scheduler did in between. Under concurrency the seed pins
// each ordinal's stream, not which push obtains which ordinal.
type DP struct {
	cfg  dp.Config
	seed uint64
	// pushes is the ordinal of the next push through the stage.
	pushes atomic.Uint64
}

// pcgSource adapts math/rand/v2's PCG (two words of state, seeded in a few
// nanoseconds — unlike the 607-word rand.NewSource) to the math/rand source
// dp.Perturb's *rand.Rand draws from.
type pcgSource struct{ *randv2.PCG }

func (s pcgSource) Int63() int64 { return int64(s.Uint64() >> 1) }
func (s pcgSource) Seed(int64)   {}

// NewDP builds a DP stage; cfg.BatchSize is overridden per gradient by the
// push's batch size. The seed derives every push's noise stream (see the
// type comment).
func NewDP(cfg dp.Config, seed int64) (*DP, error) {
	check := cfg
	check.BatchSize = 1 // Process sets the batch size per gradient
	if err := check.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: dp stage: %w", err)
	}
	return &DP{cfg: cfg, seed: uint64(seed)}, nil
}

// Name implements Stage.
func (d *DP) Name() string {
	return fmt.Sprintf("dp(clip=%g,sigma=%g)", d.cfg.ClipNorm, d.cfg.NoiseMultiplier)
}

// Process implements Stage. Noise reaches every coordinate, so a sparse g
// is densified, into fresh storage. A dense vector is copied before
// perturbation: in-process pushers alias their gradient slice into the
// pipeline, and clipping+noising the caller's memory in place would corrupt
// reused slices (and race if one slice is pushed concurrently).
func (d *DP) Process(g *Gradient) error {
	cfg := d.cfg
	cfg.BatchSize = g.Meta.BatchSize
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	if g.Indices != nil {
		g.Densify()
	} else {
		vec := make([]float64, len(g.Vec))
		copy(vec, g.Vec)
		g.Vec = vec
	}
	// The ordinal (counted from 0) goes through a splitmix64 finalizer so
	// consecutive pushes do not start from adjacent PCG states.
	n := (d.pushes.Add(1) - 1) * 0x9e3779b97f4a7c15
	n = (n ^ n>>30) * 0xbf58476d1ce4e5b9
	n = (n ^ n>>27) * 0x94d049bb133111eb
	dp.Perturb(cfg, rand.New(pcgSource{randv2.NewPCG(d.seed, n^n>>31)}), g.Vec)
	return nil
}

// NormFilter rejects gradients whose L2 norm exceeds Max — a cheap
// defense-in-depth stage against exploding or adversarially amplified
// gradients, placed before any aggregation rule sees them.
type NormFilter struct {
	// Max is the largest admitted L2 norm.
	Max float64
}

// NewNormFilter builds a norm filter.
func NewNormFilter(max float64) (NormFilter, error) {
	if max <= 0 {
		return NormFilter{}, fmt.Errorf("pipeline: norm filter needs a positive bound, got %v", max)
	}
	return NormFilter{Max: max}, nil
}

// Name implements Stage.
func (f NormFilter) Name() string { return fmt.Sprintf("norm-filter(%g)", f.Max) }

// Process implements Stage. Over a sparse g it sums the kept values only,
// which is the dense sum exactly: each omitted zero adds +0.
func (f NormFilter) Process(g *Gradient) error {
	sum := 0.0
	for _, v := range g.Vec {
		sum += float64(v * v)
	}
	if norm := math.Sqrt(sum); norm > f.Max {
		return fmt.Errorf("gradient L2 norm %.4g exceeds limit %g", norm, f.Max)
	}
	return nil
}
