package compress

import (
	"math"
	"math/rand"
)

// Quantized wire value forms: IEEE 754 binary16 ("f16") and 8-bit uniform
// levels ("q8"), both with unbiased stochastic rounding so quantization
// noise has zero mean and SGD stays convergent — the rounding error of one
// push is independent noise, not a systematic drift. They compose with
// top-k sparsification (Sparse keeps its indices, the values travel
// quantized), cutting the dominant uplink term from 8 bytes per kept
// coordinate to 2 (f16) or 1 (q8).

const (
	// f16MaxFinite is the largest finite binary16 value; inputs beyond it
	// clamp (gradients at that magnitude have long since blown up).
	f16MaxFinite = 65504.0
	// f16MaxBits is the bit pattern of f16MaxFinite.
	f16MaxBits uint16 = 0x7BFF
)

// F16ToFloat64 decodes one IEEE 754 binary16 bit pattern.
func F16ToFloat64(bits uint16) float64 {
	sign := 1.0
	if bits&0x8000 != 0 {
		sign = -1
	}
	exp := int(bits>>10) & 0x1F
	mant := int(bits & 0x3FF)
	switch {
	case exp == 0:
		// Subnormal (or zero): mant × 2⁻²⁴.
		return sign * math.Ldexp(float64(mant), -24)
	case exp == 0x1F:
		if mant != 0 {
			return math.NaN()
		}
		return sign * math.Inf(1)
	default:
		return sign * math.Ldexp(float64(1024+mant), exp-25)
	}
}

// f16FloorBits returns the bit pattern of the largest binary16 value ≤ av,
// for av in [0, f16MaxFinite]. Non-negative half-precision values are
// monotone in their bit pattern, so a binary search over [0, 0x7BFF] finds
// the floor in 15 steps with no float32 intermediate rounding.
func f16FloorBits(av float64) uint16 {
	lo, hi := uint16(0), f16MaxBits
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if F16ToFloat64(mid) <= av {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// F16FromFloat64Stochastic encodes v as binary16 with unbiased stochastic
// rounding: the two neighboring representable values are chosen with
// probability proportional to proximity, so E[decode(encode(v))] = v for
// every v within the finite range. Out-of-range values clamp (biased at
// the extreme tails, like every saturating quantizer).
func F16FromFloat64Stochastic(rng *rand.Rand, v float64) uint16 {
	if math.IsNaN(v) {
		return 0x7E00
	}
	var sign uint16
	if math.Signbit(v) {
		sign = 0x8000
		v = -v
	}
	if v >= f16MaxFinite {
		return sign | f16MaxBits
	}
	lo := f16FloorBits(v)
	if lo == f16MaxBits {
		return sign | lo
	}
	loV, hiV := F16ToFloat64(lo), F16ToFloat64(lo+1)
	if rng.Float64() < (v-loV)/(hiV-loV) {
		lo++
	}
	return sign | lo
}

// UnpackF16 decodes a vector of binary16 bit patterns.
func UnpackF16(bits []uint16) []float64 {
	out := make([]float64, len(bits))
	for i, b := range bits {
		out[i] = F16ToFloat64(b)
	}
	return out
}

// SparseF16 is a top-k sparsified gradient whose values travel as binary16
// bit patterns: 2 bytes per kept coordinate instead of 8.
type SparseF16 struct {
	Len     int      `json:"len"`
	Indices []int32  `json:"indices"`
	Values  []uint16 `json:"values"`
}

// QuantizeSparseF16 quantizes a sparse gradient's values to binary16 with
// unbiased stochastic rounding. The indices are shared, not copied.
func QuantizeSparseF16(rng *rand.Rand, s Sparse) SparseF16 {
	out := SparseF16{Len: s.Len, Indices: s.Indices, Values: make([]uint16, len(s.Values))}
	for i, v := range s.Values {
		out.Values[i] = F16FromFloat64Stochastic(rng, v)
	}
	return out
}

// SparseQ8 is a top-k sparsified gradient whose values travel as 8-bit
// uniform levels over the per-push [Min, Max] range: 1 byte per kept
// coordinate plus two float64 range bounds.
type SparseQ8 struct {
	Len     int     `json:"len"`
	Indices []int32 `json:"indices"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Levels  []uint8 `json:"levels"`
}

// QuantizeSparseQ8 quantizes a sparse gradient's values onto 256 uniform
// levels with unbiased stochastic rounding. The indices are shared, not copied.
func QuantizeSparseQ8(rng *rand.Rand, s Sparse) SparseQ8 {
	out := SparseQ8{Len: s.Len, Indices: s.Indices, Levels: make([]uint8, len(s.Values))}
	if len(s.Values) == 0 {
		return out
	}
	out.Min, out.Max = s.Values[0], s.Values[0]
	for _, v := range s.Values {
		if v < out.Min {
			out.Min = v
		}
		if v > out.Max {
			out.Max = v
		}
	}
	if out.Max == out.Min {
		return out // all levels zero; Sparse restores the constant
	}
	const levels = 255.0
	scale := levels / (out.Max - out.Min)
	for i, v := range s.Values {
		exact := (v - out.Min) * scale
		lo := math.Floor(exact)
		frac := exact - lo
		level := lo
		if rng.Float64() < frac {
			level = lo + 1
		}
		if level > levels {
			level = levels
		}
		out.Levels[i] = uint8(level)
	}
	return out
}

// Sparse dequantizes back to a float64-valued sparse gradient. The indices
// are shared, not copied.
func (q SparseQ8) Sparse() Sparse {
	out := Sparse{Len: q.Len, Indices: q.Indices, Values: make([]float64, len(q.Levels))}
	if q.Max == q.Min {
		for i := range out.Values {
			out.Values[i] = q.Min
		}
		return out
	}
	step := (q.Max - q.Min) / 255.0
	for i, l := range q.Levels {
		out.Values[i] = q.Min + float64(l)*step
	}
	return out
}
