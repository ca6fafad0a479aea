package learning

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Bhattacharyya returns the Bhattacharyya coefficient BC(p, q) = Σ √(pᵢqᵢ)
// between two discrete distributions, in [0, 1]. Inputs are normalized
// internally, so raw counts are accepted. Mismatched lengths panic.
func Bhattacharyya(p, q []float64) float64 {
	if len(p) != len(q) {
		panic("learning: Bhattacharyya length mismatch")
	}
	sp, sq := 0.0, 0.0
	for i := range p {
		if p[i] > 0 {
			sp += p[i]
		}
		if q[i] > 0 {
			sq += q[i]
		}
	}
	if sp == 0 || sq == 0 {
		return 0
	}
	bc := 0.0
	for i := range p {
		if p[i] > 0 && q[i] > 0 {
			bc += math.Sqrt(p[i] / sp * q[i] / sq)
		}
	}
	if bc > 1 {
		bc = 1 // guard against rounding
	}
	return bc
}

// LabelTracker maintains the global label distribution LD_global: the
// aggregate counts of previously used training samples per label (§2.3).
// The server only ever sees label *indices*, never semantic label values.
//
// Reads (Similarity, Distribution) are lock-free: writers publish an
// immutable copy-on-write snapshot through an atomic pointer, so the
// server's task-admission path never blocks on the gradient-commit path.
// Record is O(classes) per call — the price of the copy — which is dwarfed
// by the O(params) gradient work on the push path that pays it.
type LabelTracker struct {
	mu    sync.Mutex // serializes writers only
	state atomic.Pointer[labelState]
}

// labelState is one immutable published snapshot of LD_global.
type labelState struct {
	counts []float64
	total  float64
}

// NewLabelTracker builds a tracker over `classes` labels (or histogram bins
// for regression tasks).
func NewLabelTracker(classes int) *LabelTracker {
	if classes <= 0 {
		panic("learning: LabelTracker needs classes > 0")
	}
	l := &LabelTracker{}
	l.state.Store(&labelState{counts: make([]float64, classes)})
	return l
}

// Similarity returns sim(x) = BC(LD(x), LD_global) for a local dataset with
// the given per-label counts. Before any global observations exist it
// returns 1 (no basis to boost). Lock-free.
func (l *LabelTracker) Similarity(localCounts []int) float64 {
	st := l.state.Load()
	if st.total == 0 {
		return 1
	}
	local := make([]float64, len(st.counts))
	for i, c := range localCounts {
		if i >= len(local) {
			break
		}
		local[i] = float64(c)
	}
	return Bhattacharyya(local, st.counts)
}

// RecordWeighted folds label counts scaled by the weight the gradient was
// actually applied with. LD_global then reflects the knowledge the model
// effectively incorporated: samples whose gradient was dampened to ~0 do
// not count as "used", so their labels keep boosting future gradients
// (§2.3's similarity-based boosting remains effective for straggler-only
// labels).
func (l *LabelTracker) RecordWeighted(localCounts []int, weight float64) {
	if weight <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	old := l.state.Load()
	next := &labelState{counts: make([]float64, len(old.counts)), total: old.total}
	copy(next.counts, old.counts)
	for i, c := range localCounts {
		if i >= len(next.counts) {
			break
		}
		d := float64(float64(c) * weight)
		next.counts[i] += d
		next.total += d
	}
	l.state.Store(next)
}

// LabelState is the serializable form of a LabelTracker: the raw weighted
// counts of LD_global plus their running total.
type LabelState struct {
	Counts []float64
	Total  float64
}

// ExportState snapshots LD_global for checkpointing. Lock-free.
func (l *LabelTracker) ExportState() LabelState {
	st := l.state.Load()
	out := make([]float64, len(st.counts))
	copy(out, st.counts)
	return LabelState{Counts: out, Total: st.total}
}

// RestoreState replaces LD_global with a checkpointed one. The class count
// must match the tracker's; a mismatch is a configuration error (the
// checkpoint belongs to a different model shape).
func (l *LabelTracker) RestoreState(st LabelState) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	old := l.state.Load()
	if len(st.Counts) != len(old.counts) {
		return fmt.Errorf("learning: label state has %d classes, tracker has %d", len(st.Counts), len(old.counts))
	}
	next := &labelState{counts: make([]float64, len(st.Counts)), total: st.Total}
	copy(next.counts, st.Counts)
	l.state.Store(next)
	return nil
}
