// Package compress implements gradient compression for FLeet's uplink. The
// paper notes (§4) that communication-reduction techniques are orthogonal
// to Online FL and can be plugged into the middleware; this package makes
// that concrete with the two standard schemes:
//
//   - top-k sparsification: transmit only the k largest-magnitude
//     coordinates (with client-side error feedback so the dropped mass is
//     not lost, merely delayed);
//   - stochastic quantization of the kept values: 8-bit uniform levels
//     (SparseQ8) or binary16 (SparseF16), both with unbiased rounding.
//
// Both produce a compact wire form (Sparse, SparseQ8, SparseF16) that the
// server decodes back into a gradient before Equation 3.
package compress

import (
	"fmt"
	"math"
	"sort"
)

// Sparse is a top-k sparsified gradient: parallel index/value arrays plus
// the dense length.
type Sparse struct {
	Len     int       `json:"len"`
	Indices []int32   `json:"indices"`
	Values  []float64 `json:"values"`
}

// TopK keeps the k largest-magnitude coordinates of grad. k is clamped to
// [1, len(grad)]. The input is not modified.
func TopK(grad []float64, k int) Sparse {
	n := len(grad)
	if n == 0 {
		return Sparse{}
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	// Partial selection: full sort is fine at these sizes and keeps the
	// output deterministic (ties broken by index).
	sort.SliceStable(idx, func(a, b int) bool {
		return math.Abs(grad[idx[a]]) > math.Abs(grad[idx[b]])
	})
	out := Sparse{Len: n, Indices: make([]int32, k), Values: make([]float64, k)}
	copy(out.Indices, idx[:k])
	sort.Slice(out.Indices, func(a, b int) bool { return out.Indices[a] < out.Indices[b] })
	for i, id := range out.Indices {
		out.Values[i] = grad[id]
	}
	return out
}

// Dense reconstructs the dense gradient (zeros elsewhere).
func (s Sparse) Dense() []float64 {
	out := make([]float64, s.Len)
	for i, id := range s.Indices {
		out[id] = s.Values[i]
	}
	return out
}

// ErrorFeedback accumulates the compression residual on the worker: the
// next gradient is corrected by what previous transmissions dropped
// (memory-augmented SGD). One instance per worker.
type ErrorFeedback struct {
	residual []float64
	k        int
}

// NewErrorFeedback builds an error-feedback compressor keeping k
// coordinates per transmission for gradients of the given length.
func NewErrorFeedback(length, k int) *ErrorFeedback {
	if length <= 0 || k <= 0 {
		panic(fmt.Sprintf("compress: invalid error feedback (length=%d k=%d)", length, k))
	}
	return &ErrorFeedback{residual: make([]float64, length), k: k}
}

// Compress adds the carried residual to grad, transmits top-k of the sum,
// and retains the rest as the new residual. The input is not modified.
func (e *ErrorFeedback) Compress(grad []float64) Sparse {
	if len(grad) != len(e.residual) {
		panic(fmt.Sprintf("compress: gradient length %d, feedback expects %d", len(grad), len(e.residual)))
	}
	corrected := make([]float64, len(grad))
	for i, g := range grad {
		corrected[i] = g + e.residual[i]
	}
	sparse := TopK(corrected, e.k)
	copy(e.residual, corrected)
	for _, id := range sparse.Indices {
		e.residual[id] = 0
	}
	return sparse
}

// Diff computes the exact sparse delta from base to target: the
// coordinates whose float64 bits changed, carrying the *target* values
// (overwrite semantics, not differences — adding fl(target−base) back to
// base can round, whereas patching the stored values in reconstructs target
// bit-for-bit by construction, a +0 ↔ −0 flip and a NaN's payload
// included; a NaN both sides hold with the same bits is no change). This is
// the downlink dual of top-k sparsification: a worker holding the model at
// version t−τ pulls the delta instead of the full vector (ISSUE 3's
// version-aware pulls).
//
// Unlike TopK, Diff is lossless. When more than maxNNZ coordinates differ
// the sparse form stops paying for itself (each entry costs an index plus
// a value), so Diff returns ok=false and the caller should fall back to a
// full transfer. maxNNZ <= 0 means no bound. Mismatched lengths return
// ok=false as well.
func Diff(base, target []float64, maxNNZ int) (delta Sparse, ok bool) {
	if len(base) != len(target) {
		return Sparse{}, false
	}
	nnz := 0
	for i := range target {
		if math.Float64bits(target[i]) != math.Float64bits(base[i]) {
			nnz++
			if maxNNZ > 0 && nnz > maxNNZ {
				return Sparse{}, false
			}
		}
	}
	delta = Sparse{Len: len(target), Indices: make([]int32, 0, nnz), Values: make([]float64, 0, nnz)}
	for i := range target {
		if math.Float64bits(target[i]) != math.Float64bits(base[i]) {
			delta.Indices = append(delta.Indices, int32(i))
			delta.Values = append(delta.Values, target[i])
		}
	}
	return delta, true
}

// Patch overwrites dst at the sparse coordinates (dst[i] = s[i]), the
// reconstruction step of a delta pull: applied to the delta's base vector
// it yields the diffed target exactly. Deltas arrive over the wire, so
// Patch is where their shape is checked, once: it errors instead of
// panicking on a length mismatch, an index out of range or indices that do
// not ascend strictly — a corrupt payload must not crash the worker, and
// every reader past this point (an edge keeps its upstream's delta as its
// own step, and the history merges such lists) may trust the order — and
// it validates fully before writing, so a failed Patch never partially
// mutates dst.
func (s Sparse) Patch(dst []float64) error {
	if len(dst) != s.Len {
		return fmt.Errorf("compress: delta over %d params applied to %d", s.Len, len(dst))
	}
	if len(s.Indices) != len(s.Values) {
		return fmt.Errorf("compress: delta with %d indices, %d values", len(s.Indices), len(s.Values))
	}
	last := int32(-1)
	for _, id := range s.Indices {
		if id < 0 || int(id) >= s.Len {
			return fmt.Errorf("compress: delta index %d out of range [0, %d)", id, s.Len)
		}
		if id <= last {
			return fmt.Errorf("compress: delta index %d after %d: indices must ascend strictly", id, last)
		}
		last = id
	}
	for j, id := range s.Indices {
		dst[id] = s.Values[j]
	}
	return nil
}
