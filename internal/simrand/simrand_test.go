package simrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must yield same stream")
		}
	}
}

func TestGaussianMoments(t *testing.T) {
	rng := New(1)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := Gaussian(rng, 6, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-6) > 0.05 {
		t.Errorf("mean = %v, want ~6", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Errorf("variance = %v, want ~4", variance)
	}
}

func TestExponentialRespectMinAndMean(t *testing.T) {
	rng := New(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := Exponential(rng, 7.1, 8.45)
		if v < 7.1 {
			t.Fatalf("sample %v below minimum", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-8.45) > 0.05 {
		t.Errorf("mean = %v, want ~8.45", mean)
	}
}

func TestExponentialDegenerate(t *testing.T) {
	rng := New(6)
	if v := Exponential(rng, 5, 5); v != 5 {
		t.Errorf("got %v, want 5 when mean == min", v)
	}
	if v := Exponential(rng, 5, 3); v != 5 {
		t.Errorf("got %v, want min when mean < min", v)
	}
}

func TestZipfRankOrdering(t *testing.T) {
	rng := New(7)
	z := NewZipf(100, 1.2)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Draw(rng)]++
	}
	if counts[0] <= counts[10] {
		t.Errorf("rank 0 (%d draws) should dominate rank 10 (%d draws)", counts[0], counts[10])
	}
	if counts[0] <= counts[99] {
		t.Errorf("rank 0 (%d) should dominate rank 99 (%d)", counts[0], counts[99])
	}
}

func TestZipfDrawInRange(t *testing.T) {
	rng := New(8)
	err := quick.Check(func(seed int64) bool {
		n := int(seed%50) + 1
		if n < 1 {
			n = -n + 1
		}
		z := NewZipf(n, 1.0)
		v := z.Draw(rng)
		return v >= 0 && v < n
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestZipfPanicsOnZeroN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewZipf(0, 1)
}

func TestCategoricalProportions(t *testing.T) {
	rng := New(9)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 100000; i++ {
		counts[Categorical(rng, w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.15 {
		t.Errorf("ratio = %v, want ~3", ratio)
	}
}

func TestCategoricalNegativeWeightsIgnored(t *testing.T) {
	rng := New(10)
	for i := 0; i < 1000; i++ {
		if got := Categorical(rng, []float64{-5, 2, -1}); got != 1 {
			t.Fatalf("got index %d, want 1", got)
		}
	}
}

func TestCategoricalPanicsOnAllNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Categorical(New(11), []float64{0, -1})
}

func TestPermIsPermutation(t *testing.T) {
	rng := New(12)
	p := Perm(rng, 50)
	seen := make(map[int]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}
