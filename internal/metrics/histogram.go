package metrics

import (
	"math"
	"sort"
	"sync"
)

// Summary is the percentile digest of one latency/value stream, the unit of
// fleet-bench's machine-readable output. All fields are computed with
// nearest-rank percentiles on the recorded values, so two runs that record
// identical values produce identical (bit-for-bit) summaries.
type Summary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Summarize digests values into a Summary. An empty input yields the zero
// Summary (no panic), so optional streams can be summarized unconditionally.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	return Summary{
		Count: len(values),
		Mean:  Mean(values),
		P50:   Percentile(values, 50),
		P95:   Percentile(values, 95),
		P99:   Percentile(values, 99),
		Max:   Max(values),
	}
}

// IntBucket is one value of an integer histogram with its occurrence count.
type IntBucket struct {
	Value int `json:"value"`
	Count int `json:"count"`
}

// IntHist counts occurrences of small integers (staleness values). Safe for
// concurrent use.
type IntHist struct {
	mu     sync.Mutex
	counts map[int]int
	total  int
	sum    float64
}

// NewIntHist builds an empty integer histogram.
func NewIntHist() *IntHist { return &IntHist{counts: make(map[int]int)} }

// Add counts one occurrence of v.
func (h *IntHist) Add(v int) {
	h.mu.Lock()
	h.counts[v]++
	h.total++
	h.sum += float64(v)
	h.mu.Unlock()
}

// Mean returns the mean of the added values (0 when empty).
func (h *IntHist) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Buckets returns the histogram sorted by value — a deterministic, JSON-
// friendly rendering (Go maps with int keys cannot marshal directly).
func (h *IntHist) Buckets() []IntBucket {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]IntBucket, 0, len(h.counts))
	for v, c := range h.counts {
		out = append(out, IntBucket{Value: v, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

// Quantile returns the q-quantile (q in [0, 1]) by cumulative count over the
// sorted values, or 0 when empty.
func (h *IntHist) Quantile(q float64) int {
	buckets := h.Buckets()
	if len(buckets) == 0 {
		return 0
	}
	h.mu.Lock()
	total := h.total
	h.mu.Unlock()
	if q <= 0 {
		return buckets[0].Value
	}
	target := int(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	cum := 0
	for _, b := range buckets {
		cum += b.Count
		if cum >= target {
			return b.Value
		}
	}
	return buckets[len(buckets)-1].Value
}
