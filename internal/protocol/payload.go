package protocol

import (
	"sort"

	"fleet/internal/compress"
)

// GradientPayload is the decoded uplink gradient of one push: either Dense
// is set, or Indices/Values hold the sparse view (quantized value forms
// already expanded to float64) with Indices strictly ascending — the shape
// every TopK/Diff output has, and the precondition for scatter-accumulating
// the view in place. Shared by every gradient sink — the root server and the
// aggtree edges — so the wire dialects stay in one place.
type GradientPayload struct {
	Dense   []float64
	Indices []int32
	Values  []float64
}

// Sparse reports whether the payload carries the sparse view.
func (p GradientPayload) Sparse() bool { return p.Dense == nil }

// SetForm writes a compression chain's wire Form into the push's gradient
// fields and stamps its Encoding tag — the one form-to-fields mapping, the
// inverse of DecodeGradientPayload. The push keeps the form's arrays.
func (p *GradientPush) SetForm(f compress.Form) {
	p.Encoding = f.Encoding
	switch f.Encoding {
	case compress.EncodingTopK:
		p.GradientLen, p.SparseIndices, p.SparseValues = f.Sparse.Len, f.Sparse.Indices, f.Sparse.Values
	case compress.EncodingTopKQ8:
		p.GradientLen, p.SparseIndices, p.SparseQ8Levels = f.Q8.Len, f.Q8.Indices, f.Q8.Levels
		p.SparseQ8Min, p.SparseQ8Max = f.Q8.Min, f.Q8.Max
	case compress.EncodingTopKF16:
		p.GradientLen, p.SparseIndices, p.SparseF16 = f.F16.Len, f.F16.Indices, f.F16.Values
	default:
		p.Gradient = f.Dense
	}
}

// DecodeGradientPayload validates push's gradient against the receiver's
// parameter count and decodes it into a dense vector or a sparse
// index/value view. The Encoding tag, when present, must agree with the
// populated fields; pre-tag payloads (empty Encoding) are inferred from
// the fields alone, exactly as before the tag existed. Out-of-order or
// duplicate-index sparse payloads are canonicalized: sorted, duplicates
// merged with the last value winning (Densify's overwrite semantics).
func DecodeGradientPayload(push *GradientPush, paramCount int) (GradientPayload, error) {
	var vals []float64
	var enc string
	switch {
	case push.Gradient != nil:
		enc = compress.EncodingDense
		if push.Encoding != "" && push.Encoding != enc {
			return GradientPayload{}, Errorf(CodeInvalidArgument,
				"gradient push tagged %q carries a dense gradient", push.Encoding)
		}
		if len(push.Gradient) != paramCount {
			return GradientPayload{}, Errorf(CodeInvalidArgument,
				"gradient length %d, model has %d params", len(push.Gradient), paramCount)
		}
		return GradientPayload{Dense: push.Gradient}, nil
	case len(push.SparseF16) > 0:
		enc = compress.EncodingTopKF16
		vals = compress.UnpackF16(push.SparseF16)
	case len(push.SparseQ8Levels) > 0:
		enc = compress.EncodingTopKQ8
		q := compress.SparseQ8{
			Len: push.GradientLen, Indices: push.SparseIndices,
			Min: push.SparseQ8Min, Max: push.SparseQ8Max, Levels: push.SparseQ8Levels,
		}
		vals = q.Sparse().Values
	case len(push.SparseValues) > 0:
		enc = compress.EncodingTopK
		vals = push.SparseValues
	default:
		return GradientPayload{}, Errorf(CodeInvalidArgument,
			"gradient length 0, model has %d params", paramCount)
	}
	if push.Encoding != "" && push.Encoding != enc {
		return GradientPayload{}, Errorf(CodeInvalidArgument,
			"gradient push tagged %q carries a %s gradient", push.Encoding, enc)
	}
	if push.GradientLen != paramCount {
		return GradientPayload{}, Errorf(CodeInvalidArgument,
			"sparse gradient of dense length %d, model has %d", push.GradientLen, paramCount)
	}
	if len(push.SparseIndices) != len(vals) {
		return GradientPayload{}, Errorf(CodeInvalidArgument,
			"sparse gradient with %d indices, %d values", len(push.SparseIndices), len(vals))
	}
	out := GradientPayload{Indices: push.SparseIndices, Values: vals}
	canonical := true
	prev := int32(-1)
	for _, id := range out.Indices {
		if id < 0 || int(id) >= paramCount {
			return GradientPayload{}, Errorf(CodeInvalidArgument, "sparse index %d out of range", id)
		}
		if id <= prev {
			canonical = false
		}
		prev = id
	}
	if !canonical {
		out.Indices, out.Values = canonicalizeSparse(out.Indices, out.Values)
	}
	return out, nil
}

// canonicalizeSparse sorts a sparse view into strictly-ascending index
// order and merges duplicate indices with the last value (in wire order)
// winning — exactly the overwrite semantics compress.Sparse.Dense applies,
// so canonicalize-then-scatter and densify agree bit for bit. It writes
// into fresh slices: the inputs may alias the wire buffer (the flat codec
// decodes zero-copy), which a receiver must never reorder in place.
func canonicalizeSparse(indices []int32, values []float64) ([]int32, []float64) {
	order := make([]int, len(indices))
	for i := range order {
		order[i] = i
	}
	// Stable on the wire position: within a run of equal indices the last
	// element of the run is the last occurrence on the wire.
	sort.SliceStable(order, func(a, b int) bool { return indices[order[a]] < indices[order[b]] })
	outI := make([]int32, 0, len(indices))
	outV := make([]float64, 0, len(values))
	for _, p := range order {
		if n := len(outI); n > 0 && outI[n-1] == indices[p] {
			outV[n-1] = values[p]
			continue
		}
		outI = append(outI, indices[p])
		outV = append(outV, values[p])
	}
	return outI, outV
}

// Densify materializes the dense vector of a sparse payload with the
// legacy overwrite semantics (last value wins on duplicate indices).
func (p GradientPayload) Densify(paramCount int) []float64 {
	if p.Dense != nil {
		return p.Dense
	}
	sp := compress.Sparse{Len: paramCount, Indices: p.Indices, Values: p.Values}
	return sp.Dense()
}
