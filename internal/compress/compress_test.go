package compress

import (
	"encoding/binary"
	"math"
	"testing"
)

func TestTopKKeepsLargest(t *testing.T) {
	grad := []float64{0.1, -5, 0.2, 3, -0.05}
	s := TopK(grad, 2)
	if s.Len != 5 || len(s.Values) != 2 {
		t.Fatalf("sparse = %+v", s)
	}
	d := s.Dense()
	want := []float64{0, -5, 0, 3, 0}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("dense = %v, want %v", d, want)
		}
	}
}

func TestTopKClamps(t *testing.T) {
	grad := []float64{1, 2}
	if s := TopK(grad, 0); len(s.Values) != 1 {
		t.Error("k<1 must clamp to 1")
	}
	if s := TopK(grad, 99); len(s.Values) != 2 {
		t.Error("k>n must clamp to n")
	}
	if s := TopK(nil, 3); s.Len != 0 {
		t.Error("empty gradient")
	}
}

func TestTopKDeterministicTies(t *testing.T) {
	grad := []float64{1, 1, 1, 1}
	a, b := TopK(grad, 2), TopK(grad, 2)
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			t.Fatal("tie-breaking not deterministic")
		}
	}
}

func TestTopKPreservesInput(t *testing.T) {
	grad := []float64{3, 1, 2}
	TopK(grad, 1)
	if grad[0] != 3 || grad[1] != 1 || grad[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestErrorFeedbackConservesMass(t *testing.T) {
	// The defining property: transmitted + residual == accumulated input.
	ef := NewErrorFeedback(4, 1)
	g1 := []float64{1, 0.5, 0.2, 0.1}
	s1 := ef.Compress(g1)
	// Largest (1.0) transmitted; the rest carried.
	if s1.Values[0] != 1 {
		t.Fatalf("first transmission %v", s1.Values)
	}
	for i, want := range []float64{0, 0.5, 0.2, 0.1} {
		if ef.residual[i] != want {
			t.Fatalf("residual %v, want [0 0.5 0.2 0.1]", ef.residual)
		}
	}
	// A second gradient: residual is added before selection.
	s2 := ef.Compress([]float64{0, 0.5, 0, 0})
	// Coordinate 1 now holds 0.5+0.5=1.0, the largest.
	if s2.Indices[0] != 1 || math.Abs(s2.Values[0]-1.0) > 1e-12 {
		t.Fatalf("second transmission %+v", s2)
	}
}

func TestErrorFeedbackEventuallyTransmitsEverything(t *testing.T) {
	// Feeding zero gradients drains the residual through top-k picks.
	ef := NewErrorFeedback(5, 1)
	ef.Compress([]float64{5, 4, 3, 2, 1})
	zero := make([]float64, 5)
	for i := 0; i < 4; i++ {
		ef.Compress(zero)
	}
	for _, v := range ef.residual {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("residual %v not drained", ef.residual)
		}
	}
}

func TestErrorFeedbackPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad constructor: expected panic")
			}
		}()
		NewErrorFeedback(0, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("length mismatch: expected panic")
			}
		}()
		NewErrorFeedback(3, 1).Compress([]float64{1})
	}()
}

// TestDiffExactReconstruction: Diff names every coordinate whose bits
// changed, and Patch brings the base to the target bit for bit — a flip
// between +0 and −0 included, a NaN that keeps its bits left out.
func TestDiffExactReconstruction(t *testing.T) {
	nan, otherNaN := math.NaN(), math.Float64frombits(0x7ff8000000000002)
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name         string
		base, target []float64
		nnz          int
	}{
		{"values", []float64{1, 2, 3, 4, 5}, []float64{1, 2.5, 3, 3.5, 5}, 2},
		{"signed zeros", []float64{0, negZero, 0, negZero}, []float64{negZero, 0, 0, negZero}, 2},
		{"NaNs", []float64{nan, 1, nan, nan}, []float64{nan, nan, 2, otherNaN}, 3},
	} {
		delta, ok := Diff(tc.base, tc.target, 0)
		if !ok {
			t.Fatalf("%s: unbounded diff must succeed", tc.name)
		}
		if len(delta.Indices) != tc.nnz {
			t.Errorf("%s: nnz = %d, want %d", tc.name, len(delta.Indices), tc.nnz)
		}
		got := append([]float64(nil), tc.base...)
		if err := delta.Patch(got); err != nil {
			t.Fatal(err)
		}
		for i := range tc.target {
			if math.Float64bits(got[i]) != math.Float64bits(tc.target[i]) {
				t.Errorf("%s: coord %d: %v (%#x) != %v (%#x)", tc.name, i, got[i], math.Float64bits(got[i]), tc.target[i], math.Float64bits(tc.target[i]))
			}
		}
	}
}

func TestDiffIdenticalVectorsIsEmpty(t *testing.T) {
	v := []float64{1, 2, 3}
	delta, ok := Diff(v, v, 0)
	if !ok || len(delta.Indices) != 0 || delta.Len != 3 {
		t.Fatalf("delta = %+v, ok = %v", delta, ok)
	}
}

func TestDiffBoundsAndMismatch(t *testing.T) {
	if _, ok := Diff([]float64{1, 2}, []float64{1}, 0); ok {
		t.Fatal("length mismatch must fail")
	}
	base := []float64{0, 0, 0, 0}
	target := []float64{1, 2, 3, 0}
	if _, ok := Diff(base, target, 2); ok {
		t.Fatal("3 changes over maxNNZ=2 must fail")
	}
	if _, ok := Diff(base, target, 3); !ok {
		t.Fatal("3 changes within maxNNZ=3 must succeed")
	}
}

// TestPatchRejectsCorruptDeltas: a delta from the wire that is not a
// strictly ascending list inside the vector, with a value per index, is
// refused before anything is written.
func TestPatchRejectsCorruptDeltas(t *testing.T) {
	dst := []float64{1, 2, 3}
	for name, d := range map[string]Sparse{
		"length mismatch": {Len: 4},
		"ragged":          {Len: 3, Indices: []int32{0, 1}, Values: []float64{1}},
		"out of range":    {Len: 3, Indices: []int32{1, 3}, Values: []float64{9, 9}},
		"negative":        {Len: 3, Indices: []int32{-1, 1}, Values: []float64{9, 9}},
		"descending":      {Len: 3, Indices: []int32{2, 0}, Values: []float64{9, 9}},
		"duplicate":       {Len: 3, Indices: []int32{1, 1}, Values: []float64{9, 8}},
	} {
		if err := d.Patch(dst); err == nil {
			t.Errorf("%s delta: Patch accepted it", name)
		}
		for i, v := range []float64{1, 2, 3} {
			if dst[i] != v {
				t.Fatalf("%s delta: a failed Patch wrote dst: %v", name, dst)
			}
		}
	}
}

// FuzzDeltaPatch checks the two halves of a delta pull on arbitrary bits.
// vecs is read as little-endian float64s, its first half a base and its
// second a target: Diff then Patch must give the target back bit for bit
// (NaN payloads and signed zeros included), naming only coordinates whose
// bits changed. idx is read as little-endian int32 indices of a Sparse over
// len(base)+lenSkew params, valued from vecs (ragged when vecs runs out):
// Patch onto the base must either refuse and leave it untouched, or accept
// a strictly ascending list inside the vector and write exactly its values
// there, nothing elsewhere. The seed corpus is under
// testdata/fuzz/FuzzDeltaPatch.
func FuzzDeltaPatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, vecs, idx []byte, lenSkew int8) {
		floats := make([]float64, len(vecs)/8)
		for i := range floats {
			floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(vecs[8*i:]))
		}
		n := len(floats) / 2
		base, target := floats[:n], floats[n:2*n]
		bits := func(x float64) uint64 { return math.Float64bits(x) }

		d, ok := Diff(base, target, 0)
		if !ok {
			t.Fatalf("unbounded Diff of %d params abandoned", n)
		}
		for _, c := range d.Indices {
			if bits(base[c]) == bits(target[c]) {
				t.Fatalf("Diff names coordinate %d, whose bits did not change", c)
			}
		}
		got := append([]float64(nil), base...)
		if err := d.Patch(got); err != nil {
			t.Fatalf("Patch refused Diff's delta: %v", err)
		}
		for i := range target {
			if bits(got[i]) != bits(target[i]) {
				t.Fatalf("coordinate %d: patched %#x, target %#x", i, bits(got[i]), bits(target[i]))
			}
		}

		s := Sparse{Len: n + int(lenSkew), Indices: make([]int32, len(idx)/4)}
		for j := range s.Indices {
			s.Indices[j] = int32(binary.LittleEndian.Uint32(idx[4*j:]))
		}
		s.Values = floats[:min(len(floats), len(s.Indices))]
		dst := append([]float64(nil), base...)
		if err := s.Patch(dst); err != nil {
			for i := range base {
				if bits(dst[i]) != bits(base[i]) {
					t.Fatalf("refused Patch (%v) wrote coordinate %d", err, i)
				}
			}
			return
		}
		if s.Len != n || len(s.Values) != len(s.Indices) {
			t.Fatalf("Patch accepted a delta over %d params with %d values for %d indices onto %d params",
				s.Len, len(s.Values), len(s.Indices), n)
		}
		written := make(map[int32]float64, len(s.Indices))
		for j, c := range s.Indices {
			if c < 0 || int(c) >= n || (j > 0 && c <= s.Indices[j-1]) {
				t.Fatalf("Patch accepted indices %v, not strictly ascending in [0, %d)", s.Indices, n)
			}
			written[c] = s.Values[j]
		}
		for i := range dst {
			want, ok := written[int32(i)]
			if !ok {
				want = base[i]
			}
			if bits(dst[i]) != bits(want) {
				t.Fatalf("coordinate %d: patched %#x, want %#x", i, bits(dst[i]), bits(want))
			}
		}
	})
}
