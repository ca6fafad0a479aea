package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPercentileKnown(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	cases := []struct{ p, want float64 }{
		{0, 1}, {20, 1}, {40, 2}, {50, 3}, {90, 5}, {100, 5},
	}
	for _, c := range cases {
		if got := Percentile(v, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Percentile(nil, 50)
}

func TestPercentileDoesNotMutate(t *testing.T) {
	v := []float64{3, 1, 2}
	Percentile(v, 50)
	if v[0] != 3 || v[1] != 1 || v[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestMeanMedianMax(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	if got := Mean(v); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Median(v); got != 2 {
		t.Errorf("Median = %v", got)
	}
	if got := Max(v); got != 4 {
		t.Errorf("Max = %v", got)
	}
	if Mean(nil) != 0 || Max(nil) != 0 {
		t.Error("empty-slice defaults")
	}
}

func TestHistogramNormalized(t *testing.T) {
	v := []float64{0.1, 0.2, 0.9, 0.95, 0.5}
	h := Histogram(v, 2, 0, 1)
	if math.Abs(h[0]+h[1]-1) > 1e-12 {
		t.Fatalf("histogram sums to %v", h[0]+h[1])
	}
	// Bins are [0, 0.5) and [0.5, 1]: {0.1, 0.2} vs {0.5, 0.9, 0.95}.
	if h[0] != 0.4 || h[1] != 0.6 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestHistogramOutOfRangeIgnored(t *testing.T) {
	h := Histogram([]float64{-5, 0.5, 99}, 2, 0, 1)
	if h[0] != 0 || h[1] != 1 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	if Histogram([]float64{1}, 0, 0, 1) != nil {
		t.Error("zero bins")
	}
	if Histogram([]float64{1}, 2, 1, 1) != nil {
		t.Error("empty range")
	}
}

func TestF1AtKPerfect(t *testing.T) {
	rec := []int{1, 2, 3}
	act := map[int]bool{1: true, 2: true, 3: true}
	if got := F1AtK(rec, act); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect F1 = %v", got)
	}
}

func TestF1AtKPartial(t *testing.T) {
	// 5 recommendations, 1 hit, 2 actual: precision 0.2, recall 0.5.
	rec := []int{1, 10, 11, 12, 13}
	act := map[int]bool{1: true, 2: true}
	want := 2 * 0.2 * 0.5 / (0.2 + 0.5)
	if got := F1AtK(rec, act); math.Abs(got-want) > 1e-12 {
		t.Fatalf("F1 = %v, want %v", got, want)
	}
}

func TestF1AtKZeroCases(t *testing.T) {
	if F1AtK(nil, map[int]bool{1: true}) != 0 {
		t.Error("empty recommendations")
	}
	if F1AtK([]int{1}, nil) != 0 {
		t.Error("empty actual")
	}
	if F1AtK([]int{1}, map[int]bool{2: true}) != 0 {
		t.Error("no hits")
	}
}

// TestF1AtKRepeats: an item recommended three times is one hit, so the
// list [7 7 7 3 19] against {7 3 19} has precision 3/5 and recall 1, not
// the recall 5/3 and F1 above 1 of counting each occurrence.
func TestF1AtKRepeats(t *testing.T) {
	act := map[int]bool{7: true, 3: true, 19: true}
	want := 2 * 0.6 * 1 / (0.6 + 1)
	if got := F1AtK([]int{7, 7, 7, 3, 19}, act); math.Abs(got-want) > 1e-12 {
		t.Fatalf("F1 = %v, want %v", got, want)
	}
}

func TestF1AtKBounds(t *testing.T) {
	err := quick.Check(func(rec [5]uint8, act [3]uint8) bool {
		r := make([]int, 5)
		for i, v := range rec {
			r[i] = int(v % 20)
		}
		a := map[int]bool{}
		for _, v := range act {
			a[int(v%20)] = true
		}
		f1 := F1AtK(r, a)
		return f1 >= 0 && f1 <= 1
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "test"
	if s.FinalY() != 0 {
		t.Error("empty FinalY")
	}
	s.Add(1, 0.5)
	s.Add(2, 0.8)
	if s.FinalY() != 0.8 {
		t.Errorf("FinalY = %v", s.FinalY())
	}
	if math.Abs(s.MeanY()-0.65) > 1e-12 {
		t.Errorf("MeanY = %v", s.MeanY())
	}
	if got := s.StepsToReach(0.7); got != 2 {
		t.Errorf("StepsToReach = %v", got)
	}
	if got := s.StepsToReach(0.99); got != -1 {
		t.Errorf("unreachable target = %v", got)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}
