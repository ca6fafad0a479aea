package learning

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortedQuantile is the copy-and-sort Quantile the order-statistic multiset
// replaced, kept as the reference.
func sortedQuantile(values []int, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	q = math.Min(1, math.Max(0, q))
	sorted := append([]int(nil), values...)
	sort.Ints(sorted)
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return float64(sorted[idx])
}

var quantileProbes = []float64{0, 0.5, 0.997, 1}

func checkQuantiles(t *testing.T, tr *StalenessTracker, when string) {
	t.Helper()
	for _, q := range quantileProbes {
		if got, want := tr.Quantile(q), sortedQuantile(tr.values, q); got != want {
			t.Fatalf("%s: Quantile(%v) = %v, copy-and-sort reference says %v (n=%d)", when, q, got, want, tr.Len())
		}
	}
}

// TestQuantileMatchesSortReference: the multiset answers every query the
// way sorting the ring would, from the first observation through several
// ring wrap-arounds and across an export/restore into a smaller capacity.
func TestQuantileMatchesSortReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(200)
		tr := NewStalenessTracker(capacity)
		for i := 0; i < 5*capacity+17; i++ {
			// Mostly small τ with a heavy tail, as a fleet with stragglers.
			v := rng.Intn(4)
			if rng.Intn(10) == 0 {
				v = rng.Intn(500) - 5 // negatives clamp to 0
			}
			tr.Add(v)
			checkQuantiles(t, tr, "after Add")
		}

		small := NewStalenessTracker(1 + capacity/3)
		small.RestoreState(tr.ExportState())
		recent := tr.ExportState().Values
		recent = recent[len(recent)-small.Len():]
		for _, q := range quantileProbes {
			if got, want := small.Quantile(q), sortedQuantile(recent, q); got != want {
				t.Fatalf("restored into capacity %d: Quantile(%v) = %v, want %v over the most recent values", small.max, q, got, want)
			}
		}
		for i := 0; i < 3*small.max; i++ {
			small.Add(rng.Intn(50))
			checkQuantiles(t, small, "after restore + Add")
		}
	}
}

// TestHostileStalenessStaysBounded: staleness is version − push.ModelVersion,
// which a peer controls. Ten thousand observations with τ up to 2^40 must
// leave the tracker at O(MaxHistory) memory with exact quantiles, and the
// steady-state Add and Quantile must not allocate.
func TestHostileStalenessStaysBounded(t *testing.T) {
	const capacity = 256
	rng := rand.New(rand.NewSource(1))
	tr := NewStalenessTracker(capacity)
	for i := 0; i < 10_000; i++ {
		tr.Add(int(rng.Int63n(1 << 40)))
		if len(tr.sorted) > capacity || cap(tr.sorted) > 2*capacity || cap(tr.values) != capacity {
			t.Fatalf("after %d hostile observations: %d multiset pairs (cap %d), ring cap %d; capacity is %d",
				i+1, len(tr.sorted), cap(tr.sorted), cap(tr.values), capacity)
		}
	}
	checkQuantiles(t, tr, "after hostile stream")
	if allocs := testing.AllocsPerRun(1000, func() {
		tr.Add(int(rng.Int63n(1 << 40)))
		_ = tr.Quantile(0.997)
	}); allocs != 0 {
		t.Fatalf("Add+Quantile allocate %v times per push on a full tracker", allocs)
	}
}

// BenchmarkStalenessQuantile is the per-push τ_thres query at AdaSGD's
// default history length, after a realistic stream (a few distinct τ).
func BenchmarkStalenessQuantile(b *testing.B) {
	b.Run("history=16384", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		tr := NewStalenessTracker(16384)
		for i := 0; i < 20_000; i++ {
			tr.Add(rng.Intn(6))
		}
		b.ReportAllocs()
		b.ResetTimer()
		sink := 0.0
		for i := 0; i < b.N; i++ {
			sink += tr.Quantile(0.997)
		}
		_ = sink
	})
}
