package compress

import (
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

func TestDiffExactReconstruction(t *testing.T) {
	base := []float64{1, 2, 3, 4, 5}
	target := []float64{1, 2.5, 3, 3.5, 5}
	delta, ok := Diff(base, target, 0)
	if !ok {
		t.Fatal("unbounded diff must succeed")
	}
	if len(delta.Indices) != 2 {
		t.Fatalf("nnz = %d, want 2", len(delta.Indices))
	}
	got := append([]float64(nil), base...)
	if err := delta.Patch(got); err != nil {
		t.Fatal(err)
	}
	for i := range target {
		if got[i] != target[i] {
			t.Fatalf("coord %d: %v != %v", i, got[i], target[i])
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

func TestPatchRejectsCorruptDeltas(t *testing.T) {
	dst := []float64{1, 2, 3}
	if err := (Sparse{Len: 4}).Patch(dst); err == nil {
		t.Error("length mismatch must error")
	}
	if err := (Sparse{Len: 3, Indices: []int32{5}, Values: []float64{1}}).Patch(dst); err == nil {
		t.Error("out-of-range index must error")
	}
	if err := (Sparse{Len: 3, Indices: []int32{0, 1}, Values: []float64{1}}).Patch(dst); err == nil {
		t.Error("ragged delta must error")
	}
	for i, v := range []float64{1, 2, 3} {
		if dst[i] != v {
			t.Fatal("failed Patch must not partially mutate dst")
		}
	}
}
