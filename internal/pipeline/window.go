package pipeline

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"fleet/internal/robust"
	"fleet/internal/tensor"
)

// meanShard is one stripe of the sharded mean accumulator. The padding
// keeps adjacent shard mutexes off the same cache line.
type meanShard struct {
	mu    sync.Mutex
	accum []float64
	dirty bool
	// touched has one bit per coordinate scattered into since the last
	// drain, maintained while every Add of the window was sparse; a dense
	// Add sets dense and the bitmap is ignored until the drain clears both.
	// Only a single-shard window keeps one (nil otherwise): striped windows
	// drain several directions, and no one list describes their sum.
	touched []uint64
	dense   bool
	_       [64]byte
}

// MeanWindow is the default window aggregator: the K-sum of Equation 3,
// striped across independently locked accumulator shards. It preserves the
// pre-pipeline server's hot path bit-for-bit — round-robin shard choice,
// accum[i] += scale·g[i] under the shard lock only, and a drain that
// applies each dirty shard (applying shards one by one is equivalent to
// applying their sum: ApplyGradient is linear in the gradient). Striping
// reorders, never loses, gradient mass.
type MeanWindow struct {
	shards []meanShard
	// idx is DrainTouched's scratch: the shard's touched coordinates.
	idx []int32
	// cursor round-robins Adds across shards.
	cursor atomic.Uint64
	// alloc sizes the shard buffers on first Add (the pipeline learns the
	// parameter count only when gradients start flowing).
	alloc sync.Once
}

// NewMeanWindow builds a sharded sum-accumulate window; shards < 1 is
// clamped to 1 (the classic single accumulator).
func NewMeanWindow(shards int) *MeanWindow {
	if shards < 1 {
		shards = 1
	}
	return &MeanWindow{shards: make([]meanShard, shards)}
}

// Name implements WindowAggregator.
func (m *MeanWindow) Name() string { return fmt.Sprintf("mean(shards=%d)", len(m.shards)) }

// Add implements WindowAggregator: O(params) accumulation under this
// shard's lock only, so Adds on different shards proceed in parallel.
func (m *MeanWindow) Add(vec []float64, scale float64) {
	m.alloc.Do(func() { m.allocate(len(vec)) })
	sh := &m.shards[m.cursor.Add(1)%uint64(len(m.shards))]
	sh.mu.Lock()
	for i, g := range vec {
		sh.accum[i] += scale * g
	}
	sh.dirty, sh.dense = true, true
	sh.mu.Unlock()
}

// AddSparse implements SparseAdder: a top-k gradient scatters straight
// into one shard's accumulator without ever materializing its dense form.
// Bit-for-bit equivalent to Add on the densified vector — the same
// coordinates receive the same scale·value adds in the same order, and
// the untouched coordinates would only have received identity +0 adds —
// while skipping the O(params) allocation and loop per push.
func (m *MeanWindow) AddSparse(denseLen int, idx []int32, vals []float64, scale float64) {
	m.alloc.Do(func() { m.allocate(denseLen) })
	sh := &m.shards[m.cursor.Add(1)%uint64(len(m.shards))]
	sh.mu.Lock()
	tensor.ScatterAddScaled(sh.accum, idx, vals, scale)
	if sh.touched != nil && !sh.dense {
		for _, c := range idx {
			sh.touched[c>>6] |= 1 << (c & 63)
		}
	}
	sh.dirty = true
	sh.mu.Unlock()
}

func (m *MeanWindow) allocate(params int) {
	for i := range m.shards {
		m.shards[i].accum = make([]float64, params)
	}
	if len(m.shards) == 1 {
		m.shards[0].touched = make([]uint64, (params+63)/64)
		m.idx = []int32{} // non-nil: an empty list is not "anything may be set"
	}
}

// Drain implements WindowAggregator: every dirty shard is applied and
// zeroed. Shard locks are taken one at a time inside the caller's model
// lock (lock order model → shard, acyclic). Under concurrency a drain may
// pick up mass that pushes of the next window have already accumulated —
// mass is only ever reordered across versions, never lost or duplicated.
func (m *MeanWindow) Drain(apply func(direction []float64)) error {
	return m.DrainTouched(func(direction []float64, _ []int32) { apply(direction) })
}

// DrainTouched implements TouchedDrainer: Drain, telling apply which
// coordinates the window scattered into when one shard holds the whole
// window and all of its Adds were sparse (nil otherwise). Such a shard is
// zeroed at those coordinates only.
func (m *MeanWindow) DrainTouched(apply func(direction []float64, touched []int32)) error {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		switch {
		case !sh.dirty:
		case sh.touched == nil || sh.dense:
			apply(sh.accum, nil)
			clear(sh.accum)
			clear(sh.touched)
		default:
			idx := m.idx[:0]
			for w, word := range sh.touched {
				for ; word != 0; word &= word - 1 {
					idx = append(idx, int32(w<<6|bits.TrailingZeros64(word)))
				}
				sh.touched[w] = 0
			}
			apply(sh.accum, idx)
			for _, c := range idx {
				sh.accum[c] = 0
			}
			m.idx = idx
		}
		sh.dirty, sh.dense = false, false
		sh.mu.Unlock()
	}
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
// differ; bit-for-bit fidelity is the sharded MeanWindow's contract.)
//
// Memory: O(K · params) versus MeanWindow's O(shards · params); the
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

// Add implements WindowAggregator: the scaled copy is appended under the
// window lock.
func (w *RetainedWindow) Add(vec []float64, scale float64) {
	scaled := make([]float64, len(vec))
	for i, g := range vec {
		scaled[i] = scale * g
	}
	w.mu.Lock()
	w.window = append(w.window, scaled)
	w.mu.Unlock()
}

// Buffered returns the number of gradients currently retained (diagnostics
// and tests).
func (w *RetainedWindow) Buffered() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.window)
}

// Drain implements WindowAggregator: the whole buffered window is taken,
// validated, aggregated by the rule and applied as one direction. An empty
// window (possible when a concurrent drain already consumed the buffer) is
// a no-op; a window the rule rejects is discarded with the error.
func (w *RetainedWindow) Drain(apply func(direction []float64)) error {
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
	apply(dir)
	return nil
}
