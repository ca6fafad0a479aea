// Package learning implements the gradient-aggregation algorithms of the
// FLeet paper (§2.3): AdaSGD — the paper's staleness-aware, similarity-
// boosting update rule — and the baselines it is evaluated against (DynSGD,
// FedAvg, synchronous SGD).
//
// All algorithms expose a single hook: the per-gradient scaling factor
// applied inside the server update
//
//	θ(t+1) = θ(t) − γ Σᵢ scaleᵢ · Gᵢ        (Equation 3)
//
// For AdaSGD the factor is min(1, Λ(τᵢ) / sim(xᵢ)) with the exponential
// dampening Λ(τ) = e^(−βτ) and the Bhattacharyya label-distribution
// similarity sim.
package learning

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// GradientMeta carries the server-side metadata of one received gradient.
type GradientMeta struct {
	// Staleness is τ = t − tᵢ: the number of model updates between the
	// worker's model pull and its gradient push.
	Staleness int
	// Similarity is the Bhattacharyya coefficient between the worker's label
	// distribution and the global one, in [0, 1]. A value of 1 means "no new
	// information"; values below 1 trigger AdaSGD's boosting.
	Similarity float64
	// BatchSize is the mini-batch size the gradient was computed on.
	BatchSize int
	// WorkerID identifies the contributing worker (diagnostics only).
	WorkerID int
}

// Algorithm computes the scaling factor of one gradient. Implementations
// must be safe for concurrent use: the async server calls Scale from many
// handler goroutines.
type Algorithm interface {
	// Name returns the algorithm's display name.
	Name() string
	// Scale returns the multiplier applied to the gradient in Equation 3.
	Scale(meta GradientMeta) float64
	// AbsorbWeight returns the weight with which the gradient's label mass
	// enters LD_global. For staleness-aware algorithms this is the pure
	// dampening factor Λ(τ) — the fraction of the gradient's knowledge the
	// model effectively absorbed — *without* the similarity boost, so that
	// straggler-only labels retain their novelty and keep being boosted
	// (the self-consistent reading of §2.3 that reproduces Figure 9).
	AbsorbWeight(meta GradientMeta) float64
	// Observe lets the algorithm update its internal state (e.g. staleness
	// quantiles) after a gradient has been applied.
	Observe(meta GradientMeta)
}

// SSGD is synchronous SGD: every gradient is computed on the latest model
// (staleness 0 by construction) and applied at full weight. It represents
// the ideal, staleness-free convergence in the paper's figures.
type SSGD struct{}

// Name implements Algorithm.
func (SSGD) Name() string { return "SSGD" }

// Scale implements Algorithm.
func (SSGD) Scale(GradientMeta) float64 { return 1 }

// AbsorbWeight implements Algorithm.
func (SSGD) AbsorbWeight(GradientMeta) float64 { return 1 }

// Observe implements Algorithm.
func (SSGD) Observe(GradientMeta) {}

// FedAvg is the staleness-unaware baseline: gradients are averaged over the
// aggregation window regardless of staleness. Under asynchronous updates it
// applies stale gradients at full weight, which is what makes it diverge in
// Figures 8 and 10.
type FedAvg struct{}

// Name implements Algorithm.
func (FedAvg) Name() string { return "FedAvg" }

// Scale implements Algorithm.
func (FedAvg) Scale(GradientMeta) float64 { return 1 }

// AbsorbWeight implements Algorithm.
func (FedAvg) AbsorbWeight(GradientMeta) float64 { return 1 }

// Observe implements Algorithm.
func (FedAvg) Observe(GradientMeta) {}

// DynSGD is the staleness-aware baseline of Jiang et al. (SIGMOD'17) used
// throughout the paper's evaluation: the inverse dampening Λ(τ) = 1/(τ+1).
type DynSGD struct{}

// Name implements Algorithm.
func (DynSGD) Name() string { return "DynSGD" }

// Scale implements Algorithm.
func (DynSGD) Scale(meta GradientMeta) float64 {
	return InverseDampening(meta.Staleness)
}

// AbsorbWeight implements Algorithm.
func (DynSGD) AbsorbWeight(meta GradientMeta) float64 {
	return InverseDampening(meta.Staleness)
}

// Observe implements Algorithm.
func (DynSGD) Observe(GradientMeta) {}

// InverseDampening is DynSGD's dampening function Λ(τ) = 1/(τ+1).
func InverseDampening(staleness int) float64 {
	if staleness < 0 {
		staleness = 0
	}
	return 1 / float64(staleness+1)
}

// ExponentialDampening is AdaSGD's dampening Λ(τ) = e^(−βτ) with β chosen
// so the exponential intersects the inverse dampening at τ_thres/2:
//
//	1/(τ_thres/2 + 1) = e^(−β·τ_thres/2)  ⇒  β = 2·ln(τ_thres/2 + 1)/τ_thres.
func ExponentialDampening(staleness int, tauThres float64) float64 {
	if staleness <= 0 {
		return 1
	}
	if tauThres <= 0 {
		// Degenerate threshold: every positive staleness is a straggler.
		return math.Exp(-float64(staleness))
	}
	beta := 2 * math.Log(float64(tauThres/2)+1) / tauThres
	return math.Exp(-beta * float64(staleness))
}

// AdaSGDConfig parameterizes AdaSGD.
type AdaSGDConfig struct {
	// NonStragglerPct is the paper's system parameter s%: τ_thres is the
	// s-th percentile of observed staleness values. Typical value: 99.7.
	NonStragglerPct float64
	// BootstrapSteps is the number of initial gradients for which the
	// inverse (DynSGD) dampening is used while the staleness distribution is
	// still unrepresentative (§2.3).
	BootstrapSteps int
	// DisableSimilarityBoost turns off the 1/sim(x) boosting term. Used by
	// the ablation experiments and when label distributions are considered
	// privacy sensitive (§5).
	DisableSimilarityBoost bool
}

// maxHistory bounds the staleness history behind the τ_thres quantile.
const maxHistory = 16384

// simFloor is the similarity below which a gradient counts as entirely novel
// and receives the full boost (scale 1). Without a floor the boost can never
// overcome the exponential dampening of deep stragglers (Λ(4·τ_thres) ≈
// 1e-7), and Figure 9's recovery would be unreproducible.
const simFloor = 0.05

// AdaSGD is the paper's adaptive asynchronous SGD (§2.3): exponential
// staleness dampening calibrated on the τ_thres quantile, boosted by the
// inverse Bhattacharyya similarity of the gradient's label distribution.
type AdaSGD struct {
	cfg AdaSGDConfig

	mu      sync.Mutex
	tracker *StalenessTracker
	seen    int
}

// NewAdaSGD builds an AdaSGD instance.
func NewAdaSGD(cfg AdaSGDConfig) *AdaSGD {
	if cfg.NonStragglerPct <= 0 || cfg.NonStragglerPct > 100 {
		panic(fmt.Sprintf("learning: NonStragglerPct %v outside (0, 100]", cfg.NonStragglerPct))
	}
	return &AdaSGD{
		cfg:     cfg,
		tracker: NewStalenessTracker(maxHistory),
	}
}

// Name implements Algorithm.
func (a *AdaSGD) Name() string { return "AdaSGD" }

// Scale implements Algorithm.
func (a *AdaSGD) Scale(meta GradientMeta) float64 {
	damp := a.AbsorbWeight(meta)
	if a.cfg.DisableSimilarityBoost {
		return math.Min(1, damp)
	}
	sim := meta.Similarity
	if sim < simFloor {
		// Entirely (or almost entirely) novel labels: full boost. Without
		// this saturation the exponential dampening of deep stragglers can
		// never be overcome (see simFloor).
		return 1
	}
	if sim > 1 {
		sim = 1
	}
	return math.Min(1, damp/sim)
}

// AbsorbWeight implements Algorithm: the pure staleness dampening Λ(τ),
// using the inverse fallback during the bootstrap phase.
func (a *AdaSGD) AbsorbWeight(meta GradientMeta) float64 {
	a.mu.Lock()
	bootstrap := a.seen < a.cfg.BootstrapSteps || a.tracker.Len() == 0
	tauThres := a.tracker.Quantile(a.cfg.NonStragglerPct / 100)
	a.mu.Unlock()

	if bootstrap {
		// Bootstrapping phase: fall back to the inverse dampening until the
		// staleness history is representative (§2.3).
		return InverseDampening(meta.Staleness)
	}
	return ExponentialDampening(meta.Staleness, tauThres)
}

// Observe implements Algorithm.
func (a *AdaSGD) Observe(meta GradientMeta) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tracker.Add(meta.Staleness)
	a.seen++
}

// AdaSGDState is the serializable mutable state of an AdaSGD instance: the
// staleness history behind the τ_thres quantile plus the bootstrap counter.
// The configuration (percentile, bootstrap length) is not part of the state
// — it comes from the deployment that restores it.
type AdaSGDState struct {
	Seen      int
	Staleness StalenessState
}

// ExportState snapshots the algorithm's mutable state for checkpointing.
func (a *AdaSGD) ExportState() AdaSGDState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdaSGDState{Seen: a.seen, Staleness: a.tracker.ExportState()}
}

// RestoreState replaces the algorithm's mutable state with a checkpointed
// one. The tracker keeps its configured capacity; a history longer than the
// capacity is truncated to its most recent values.
func (a *AdaSGD) RestoreState(st AdaSGDState) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seen = st.Seen
	a.tracker.RestoreState(st.Staleness)
}

// StalenessTracker keeps a bounded history of staleness values and answers
// quantile queries, implementing the paper's τ_thres estimation. The
// quantile is on every push, so beside the chronological ring the tracker
// maintains the same values as a sorted multiset and reads the order
// statistic off it instead of sorting the history per query.
type StalenessTracker struct {
	max    int
	values []int
	next   int
	// sorted holds the ring's values as ascending (τ, count) pairs. It has
	// at most one pair per stored value — O(max) however large a τ a peer
	// declares — and in practice a handful (distinct staleness values are
	// few).
	sorted []tauCount
}

// tauCount is one multiset entry: n stored observations of staleness tau.
type tauCount struct{ tau, n int }

// NewStalenessTracker builds a tracker bounded to max values (ring buffer).
func NewStalenessTracker(max int) *StalenessTracker {
	if max <= 0 {
		panic("learning: StalenessTracker needs max > 0")
	}
	return &StalenessTracker{max: max, values: make([]int, 0, max)}
}

// Add records one staleness observation.
func (s *StalenessTracker) Add(v int) {
	if v < 0 {
		v = 0
	}
	if len(s.values) < s.max {
		s.values = append(s.values, v)
	} else {
		s.count(s.values[s.next], -1)
		s.values[s.next] = v
		s.next = (s.next + 1) % s.max
	}
	s.count(v, 1)
}

// count adds delta (±1) observations of v to the sorted multiset, inserting
// or deleting v's pair as its count leaves or reaches zero.
func (s *StalenessTracker) count(v, delta int) {
	i := sort.Search(len(s.sorted), func(i int) bool { return s.sorted[i].tau >= v })
	if i == len(s.sorted) || s.sorted[i].tau != v {
		s.sorted = append(s.sorted, tauCount{})
		copy(s.sorted[i+1:], s.sorted[i:])
		s.sorted[i] = tauCount{tau: v}
	}
	if s.sorted[i].n += delta; s.sorted[i].n == 0 {
		s.sorted = append(s.sorted[:i], s.sorted[i+1:]...)
	}
}

// Len returns the number of stored observations.
func (s *StalenessTracker) Len() int { return len(s.values) }

// StalenessState is the serializable form of a StalenessTracker: the
// observation history in chronological order (oldest first).
type StalenessState struct {
	Values []int
}

// ExportState snapshots the history in chronological order, so restoring
// into a tracker of any capacity keeps the most recent observations.
func (s *StalenessTracker) ExportState() StalenessState {
	out := make([]int, 0, len(s.values))
	if len(s.values) == s.max {
		out = append(out, s.values[s.next:]...)
		out = append(out, s.values[:s.next]...)
	} else {
		out = append(out, s.values...)
	}
	return StalenessState{Values: out}
}

// RestoreState replaces the history with a checkpointed one, truncated to
// the tracker's capacity (most recent values win). The multiset is derived
// state and is rebuilt from the values.
func (s *StalenessTracker) RestoreState(st StalenessState) {
	vals := st.Values
	if len(vals) > s.max {
		vals = vals[len(vals)-s.max:]
	}
	s.values = make([]int, len(vals), s.max)
	copy(s.values, vals)
	s.next = 0
	sorted := append([]int(nil), s.values...)
	sort.Ints(sorted)
	s.sorted = s.sorted[:0]
	for _, v := range sorted {
		if k := len(s.sorted); k > 0 && s.sorted[k-1].tau == v {
			s.sorted[k-1].n++
		} else {
			s.sorted = append(s.sorted, tauCount{tau: v, n: 1})
		}
	}
}

// Quantile returns the q-quantile (q in [0, 1]) of the stored history, or 0
// when empty: the nearest-rank order statistic at index ceil(q·n)−1 of the
// sorted values.
func (s *StalenessTracker) Quantile(q float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	idx := int(math.Ceil(q*float64(len(s.values)))) - 1
	i := 0
	for ; idx >= s.sorted[i].n; i++ {
		idx -= s.sorted[i].n
	}
	return float64(s.sorted[i].tau)
}
