package metrics

import (
	"reflect"
	"sync"
	"testing"
)

func TestSummarize(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1) // 1..100
	}
	s := Summarize(vals)
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P50 != 50 || s.P95 != 95 || s.P99 != 99 || s.Max != 100 {
		t.Fatalf("percentiles = %+v", s)
	}
	if s.Mean != 50.5 {
		t.Fatalf("mean = %v", s.Mean)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestRecorderCapKeepsFirst(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 10; i++ {
		r.Observe(float64(i))
	}
	if s := r.Summary(); s.Count != 3 || s.Max != 2 {
		t.Fatalf("capped recorder kept %d values up to %v, want the first 3", s.Count, s.Max)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Observe(1)
			}
		}()
	}
	wg.Wait()
	if n := r.Summary().Count; n != 4000 {
		t.Fatalf("count = %d", n)
	}
}

func TestIntHist(t *testing.T) {
	h := NewIntHist()
	for _, v := range []int{0, 0, 0, 1, 1, 2, 5} {
		h.Add(v)
	}
	if h.total != 7 {
		t.Fatalf("total = %d", h.total)
	}
	want := []IntBucket{{0, 3}, {1, 2}, {2, 1}, {5, 1}}
	if got := h.Buckets(); !reflect.DeepEqual(got, want) {
		t.Fatalf("buckets = %+v", got)
	}
	if q := h.Quantile(0.5); q != 1 {
		t.Fatalf("p50 = %d, want 1", q)
	}
	if q := h.Quantile(0.99); q != 5 {
		t.Fatalf("p99 = %d, want 5", q)
	}
	if m := h.Mean(); m != 9.0/7.0 {
		t.Fatalf("mean = %v", m)
	}
}

func TestIntHistEmpty(t *testing.T) {
	h := NewIntHist()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || len(h.Buckets()) != 0 {
		t.Fatal("empty hist not zero-valued")
	}
}
