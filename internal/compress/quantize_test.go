package compress

import (
	"math"
	"math/rand"
	"testing"
)

func TestF16RoundTripExact(t *testing.T) {
	// Every value exactly representable in binary16 must survive the
	// stochastic round trip bit-for-bit, whatever the generator draws: it
	// has no neighbour to round to.
	rng := rand.New(rand.NewSource(5))
	f16 := func(v float64) float64 { return F16ToFloat64(F16FromFloat64Stochastic(rng, v)) }
	for _, v := range []float64{0, 1, -1, 0.5, 2, 1024, 65504, -65504, 0.000030517578125, 5.960464477539063e-08} {
		for i := 0; i < 100; i++ {
			if got := f16(v); got != v {
				t.Fatalf("f16 round trip of %v: got %v", v, got)
			}
		}
	}
	// Infinities saturate to the largest finite half, like any other
	// out-of-range value (gradient payloads are finite by construction).
	if got := f16(math.Inf(1)); got != 65504 {
		t.Errorf("+Inf clamps to 65504, got %v", got)
	}
	if got := f16(math.Inf(-1)); got != -65504 {
		t.Errorf("-Inf clamps to -65504, got %v", got)
	}
	if !math.IsNaN(f16(math.NaN())) {
		t.Error("NaN must survive")
	}
	// Overflow clamps to the largest finite f16.
	if got := f16(1e6); got != 65504 {
		t.Errorf("overflow clamps to 65504, got %v", got)
	}
}

// TestF16StochasticUnbiased: the stochastic rounder must be unbiased —
// the mean of many independent roundings converges to the true value,
// the property that keeps quantized gradient sums centered on the exact
// sum (quantization noise averages out across the K-window instead of
// drifting the model).
func TestF16StochasticUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, v := range []float64{0.1001, -0.0317, 3.14159, 1e-3, -7.7} {
		var sum float64
		const trials = 20000
		for i := 0; i < trials; i++ {
			sum += F16ToFloat64(F16FromFloat64Stochastic(rng, v))
		}
		mean := sum / trials
		// Grid gap near v; mean of N samples has std <= gap/(2*sqrt(N)).
		gap := math.Abs(v) / 1024
		if gap == 0 {
			gap = 1e-7
		}
		if math.Abs(mean-v) > gap/20 {
			t.Errorf("value %v: stochastic mean %v drifted by %v (gap %v)",
				v, mean, math.Abs(mean-v), gap)
		}
	}
}

// TestQ8Unbiased: same property for the 8-bit range quantizer.
func TestQ8Unbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sp := Sparse{Len: 8, Indices: []int32{0, 2, 3, 5, 7}, Values: []float64{-1.3, 0.42, 0.011, 2.6, -0.77}}
	sums := make([]float64, len(sp.Values))
	const trials = 20000
	for i := 0; i < trials; i++ {
		q := QuantizeSparseQ8(rng, sp)
		back := q.Sparse()
		for j, v := range back.Values {
			sums[j] += v
		}
	}
	gap := (2.6 - (-1.3)) / 255
	for j, want := range sp.Values {
		mean := sums[j] / trials
		if math.Abs(mean-want) > gap/20 {
			t.Errorf("coord %d: q8 mean %v vs exact %v (drift %v, gap %v)",
				j, mean, want, math.Abs(mean-want), gap)
		}
	}
}

func TestQ8RoundTripStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sp := Sparse{Len: 100, Indices: []int32{1, 50, 99}, Values: []float64{-2, 0, 2}}
	q := QuantizeSparseQ8(rng, sp)
	if q.Len != 100 || len(q.Levels) != 3 {
		t.Fatalf("q8 structure: %+v", q)
	}
	if q.Min != -2 || q.Max != 2 {
		t.Fatalf("q8 range [%v,%v], want [-2,2]", q.Min, q.Max)
	}
	back := q.Sparse()
	gap := 4.0 / 255
	for j, v := range back.Values {
		if math.Abs(v-sp.Values[j]) > gap {
			t.Errorf("coord %d: dequantized %v vs %v", j, v, sp.Values[j])
		}
	}
	// Range endpoints are exactly representable (levels 0 and 255).
	if back.Values[0] != -2 || back.Values[2] != 2 {
		t.Errorf("endpoints must be exact: got %v, %v", back.Values[0], back.Values[2])
	}
}

func TestQ8Degenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sp := Sparse{Len: 4, Indices: []int32{0, 1}, Values: []float64{0.5, 0.5}}
	q := QuantizeSparseQ8(rng, sp)
	back := q.Sparse()
	for j, v := range back.Values {
		if v != 0.5 {
			t.Errorf("constant vector coord %d: %v, want 0.5", j, v)
		}
	}
}

func TestQuantizeSparseF16Structure(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sp := Sparse{Len: 10, Indices: []int32{0, 9}, Values: []float64{1.0002, -3}}
	f := QuantizeSparseF16(rng, sp)
	if f.Len != 10 || len(f.Values) != 2 {
		t.Fatalf("f16 structure: %+v", f)
	}
	for j, v := range UnpackF16(f.Values) {
		if math.Abs(v-sp.Values[j]) > math.Abs(sp.Values[j])/1024 {
			t.Errorf("coord %d: %v vs %v", j, v, sp.Values[j])
		}
	}
}
