package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of vs (the mean of the two middle values
// for an even count) without reordering vs; 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// cell is one reported (metric, workload) value: the median over reps of
// the per-rep statistic, with the smallest and largest rep beside it.
type cell struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// overReps folds the per-rep values of one metric into its reported cell.
func overReps(perRep []float64) cell {
	if len(perRep) == 0 {
		return cell{}
	}
	c := cell{Median: median(perRep), Min: perRep[0], Max: perRep[0]}
	for _, v := range perRep[1:] {
		c.Min = math.Min(c.Min, v)
		c.Max = math.Max(c.Max, v)
	}
	return c
}

// nsToSortedUs converts nanosecond samples to ascending microseconds.
func nsToSortedUs(ns []int64) []float64 {
	us := make([]float64, len(ns))
	for i, v := range ns {
		us[i] = float64(v) / 1e3
	}
	sort.Float64s(us)
	return us
}
