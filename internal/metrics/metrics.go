// Package metrics provides the evaluation metrics and summary statistics
// used across the FLeet experiments: percentiles/CDFs for SLO deviations,
// F1@top-k for the hashtag recommender, and simple stream statistics.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Percentile returns the p-th percentile (p in [0, 100]) of values using
// nearest-rank on a sorted copy. It panics on an empty input.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		panic("metrics: Percentile of empty slice")
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// Median returns the 50th percentile.
func Median(values []float64) float64 { return Percentile(values, 50) }

// Max returns the maximum, or 0 for an empty slice.
func Max(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	m := values[0]
	for _, v := range values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Histogram bins values into n equal-width bins over [min, max] and returns
// normalized frequencies (summing to 1).
func Histogram(values []float64, nBins int, min, max float64) []float64 {
	if nBins <= 0 || max <= min {
		return nil
	}
	bins := make([]float64, nBins)
	count := 0
	width := (max - min) / float64(nBins)
	for _, v := range values {
		if v < min || v > max {
			continue
		}
		idx := int((v - min) / width)
		if idx >= nBins {
			idx = nBins - 1
		}
		bins[idx]++
		count++
	}
	if count == 0 {
		return bins
	}
	for i := range bins {
		bins[i] /= float64(count)
	}
	return bins
}

// F1AtK computes the F1 score of a top-k recommendation against the set of
// actually used items (the paper's F1-score @ top-5, §3.1). recommended is
// the ranked top-k list; actual is the ground-truth set. An item recommended
// twice is a hit once: the repeat only takes a slot.
func F1AtK(recommended []int, actual map[int]bool) float64 {
	if len(recommended) == 0 || len(actual) == 0 {
		return 0
	}
	hits := 0
	for i, r := range recommended {
		if actual[r] && !slices.Contains(recommended[:i], r) {
			hits++
		}
	}
	if hits == 0 {
		return 0
	}
	precision := float64(hits) / float64(len(recommended))
	recall := float64(hits) / float64(len(actual))
	return 2 * precision * recall / (precision + recall)
}

// Series is a named sequence of (x, y) points, the unit of experiment
// output: one Series per curve of a paper figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// FinalY returns the last y value, or 0 when empty.
func (s *Series) FinalY() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	return s.Y[len(s.Y)-1]
}

// MeanY returns the mean of the y values.
func (s *Series) MeanY() float64 { return Mean(s.Y) }

// String renders the series compactly.
func (s *Series) String() string {
	return fmt.Sprintf("%s (%d pts, final %.4f)", s.Name, len(s.Y), s.FinalY())
}

// StepsToReach returns the first x at which y ≥ target, or -1 when never
// reached. Used for "X% faster convergence" comparisons (Figure 8).
func (s *Series) StepsToReach(target float64) float64 {
	for i, y := range s.Y {
		if y >= target {
			return s.X[i]
		}
	}
	return -1
}
