package pipeline

import (
	"fmt"
	"math/bits"
	"sync"

	"fleet/internal/robust"
	"fleet/internal/tensor"
)

// MeanWindow is the default window aggregator: the K-sum of Equation 3 in
// one accumulator, accum[i] += scale·g[i] under one lock.
type MeanWindow struct {
	mu    sync.Mutex
	accum []float64
	dirty bool
	// touched has one bit per coordinate scattered into since the last
	// drain, maintained while every Add of the window was sparse; a dense
	// Add sets dense and the bitmap is ignored until the drain clears both.
	touched []uint64
	dense   bool
	// idx is Drain's scratch: the window's touched coordinates.
	idx []int32
}

// NewMeanWindow builds the sum-accumulate window.
func NewMeanWindow() *MeanWindow { return &MeanWindow{} }

// Name implements WindowAggregator.
func (m *MeanWindow) Name() string { return "mean" }

// Add implements WindowAggregator. Each product is rounded on its own
// (float64(…)) before it is added, so no architecture fuses the multiply
// and the add, and the sum is the same bit for bit on every GOARCH.
func (m *MeanWindow) Add(g *Gradient) {
	if g.Indices != nil {
		m.addSparse(g.DenseLen, g.Indices, g.Vec, g.Scale)
		return
	}
	m.addDense(g.Vec, g.Scale)
}

// addDense is O(params) accumulation under the lock. Four coordinates per
// iteration: one per iteration spends a third of a dense push in loop
// overhead, and on a shared 2-vCPU host its time swung by up to 40 % from
// one server to the next. Each coordinate still gets its one scale·g add,
// so the window's sum is the same bit for bit.
func (m *MeanWindow) addDense(vec []float64, scale float64) {
	m.mu.Lock()
	m.allocate(len(vec))
	acc := m.accum[:len(vec)]
	i := 0
	for ; i+4 <= len(vec); i += 4 {
		a, g := acc[i:i+4:i+4], vec[i:i+4:i+4]
		a[0] += float64(scale * g[0])
		a[1] += float64(scale * g[1])
		a[2] += float64(scale * g[2])
		a[3] += float64(scale * g[3])
	}
	for ; i < len(vec); i++ {
		acc[i] += float64(scale * vec[i])
	}
	m.dirty, m.dense = true, true
	m.mu.Unlock()
}

// addSparse scatters a top-k gradient straight into the accumulator without
// ever materializing its dense form. Bit-for-bit equivalent to addDense on
// the densified vector: the same coordinates receive the same scale·value
// adds in the same order, and the untouched ones would only have received
// ±0, which leaves an accumulator that starts at +0 as it was.
func (m *MeanWindow) addSparse(denseLen int, idx []int32, vals []float64, scale float64) {
	m.mu.Lock()
	m.allocate(denseLen)
	tensor.ScatterAddScaled(m.accum, idx, vals, scale)
	if !m.dense {
		for _, c := range idx {
			m.touched[c>>6] |= 1 << (c & 63)
		}
	}
	m.dirty = true
	m.mu.Unlock()
}

// allocate sizes the buffers on the first Add (the pipeline learns the
// parameter count only when gradients start flowing). Callers hold mu.
func (m *MeanWindow) allocate(params int) {
	if m.accum == nil {
		m.accum = make([]float64, params)
		m.touched = make([]uint64, (params+63)/64)
		m.idx = []int32{} // non-nil: an empty list is not "anything may be set"
	}
}

// Drain implements WindowAggregator: the window is applied and zeroed,
// under the window lock inside the caller's model lock (lock order
// model → window, acyclic). Under concurrency a drain may pick up mass that
// pushes of the next window have already accumulated — mass is only ever
// reordered across versions, never lost or duplicated. A window whose Adds
// were all sparse reports the coordinates they scattered into and is
// zeroed at those coordinates only.
func (m *MeanWindow) Drain(apply func(direction []float64, touched []int32)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case !m.dirty:
	case m.dense:
		apply(m.accum, nil)
		clear(m.accum)
		clear(m.touched)
	default:
		idx := m.idx[:0]
		for w, word := range m.touched {
			for ; word != 0; word &= word - 1 {
				idx = append(idx, int32(w<<6|bits.TrailingZeros64(word)))
			}
			m.touched[w] = 0
		}
		apply(m.accum, idx)
		for _, c := range idx {
			m.accum[c] = 0
		}
		m.idx = idx
	}
	m.dirty, m.dense = false, false
	return nil
}

// RetainedWindow buffers every scaled gradient of the current window so a
// robust.Aggregator (CoordinateMedian, TrimmedMean, Krum — or robust.Mean)
// can see all K members before emitting one update direction. This is the
// window-retention mode Byzantine-resilient rules need: unlike MeanWindow
// they are not linear, so per-push accumulation cannot express them.
//
// Robust rules emit a mean-scale direction (one representative window
// member); Drain multiplies it by the window size so every aggregator
// applies the K-sum magnitude of Equation 3 — swapping "mean" for
// "median" or "krum" at a fixed learning rate keeps the effective step
// size instead of silently shrinking it by K. (With robust.Mean the
// result matches MeanWindow's sum up to floating-point rounding — the
// mean is computed as sum·(1/K) and rescaled by K, so the last ulp can
// differ; bit-for-bit fidelity is MeanWindow's contract.)
//
// Memory: O(K · params) versus MeanWindow's O(params); the
// aggregation itself is O(K·params) to O(K²·params) depending on the rule.
type RetainedWindow struct {
	rule robust.Aggregator

	mu     sync.Mutex
	window [][]float64
}

// NewRetained wraps a robust aggregation rule in window-retention mode.
func NewRetained(rule robust.Aggregator) (*RetainedWindow, error) {
	if rule == nil {
		return nil, fmt.Errorf("pipeline: retained window needs an aggregation rule")
	}
	return &RetainedWindow{rule: rule}, nil
}

// Name implements WindowAggregator.
func (w *RetainedWindow) Name() string { return w.rule.Name() }

// Add implements WindowAggregator: a sparse g is densified first, and the
// scaled copy of every coordinate is appended under the window lock. (The
// scale must reach the zeros too: a negative scale turns them into −0.)
func (w *RetainedWindow) Add(g *Gradient) {
	g.Densify()
	scaled := make([]float64, len(g.Vec))
	for i, v := range g.Vec {
		scaled[i] = g.Scale * v
	}
	w.mu.Lock()
	w.window = append(w.window, scaled)
	w.mu.Unlock()
}

// Drain implements WindowAggregator: the whole buffered window is taken,
// validated, aggregated by the rule and applied as one direction. An empty
// window (possible when a concurrent drain already consumed the buffer) is
// a no-op; a window the rule rejects is discarded with the error. The
// direction may be nonzero anywhere, so touched is nil.
func (w *RetainedWindow) Drain(apply func(direction []float64, touched []int32)) error {
	w.mu.Lock()
	window := w.window
	w.window = nil
	w.mu.Unlock()
	if len(window) == 0 {
		return nil
	}
	if err := robust.CheckWindow(window); err != nil {
		return err
	}
	dir, err := w.rule.Aggregate(window)
	if err != nil {
		return err
	}
	// Restore the K-sum magnitude (see the type comment).
	k := float64(len(window))
	for i := range dir {
		dir[i] *= k
	}
	apply(dir, nil)
	return nil
}
