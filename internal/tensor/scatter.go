package tensor

// ScatterAddScaled adds scale·vals[j] into dst at each idx[j]: the sparse
// accumulate primitive behind top-k gradient pushes. The caller has
// validated indices against len(dst) (the wire boundary does it once per
// push), so the loop itself stays flat and branch-free apart from the
// bounds checks the compiler can see: a single pass over two parallel
// slices with no allocation, the scatter dual of the dense
// `dst[i] += scale*src[i]` accumulate loop.
//
// Like the rest of this package it is deliberately scalar and sequential,
// keeping gradient accumulation bit-for-bit reproducible; adds happen in
// slice order, so equal inputs produce equal floating-point results.
func ScatterAddScaled(dst []float64, idx []int32, vals []float64, scale float64) {
	if len(idx) > len(vals) {
		idx = idx[:len(vals)]
	}
	for j, id := range idx {
		dst[id] += float64(scale * vals[j])
	}
}
