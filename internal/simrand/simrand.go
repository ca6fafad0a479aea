// Package simrand provides deterministic random-variate generators used by
// the FLeet simulators. Every generator takes an explicit source so that
// experiments are reproducible bit-for-bit.
package simrand

import (
	"math"
	"math/rand"
)

// New returns a seeded *rand.Rand. All FLeet components draw randomness from
// explicitly passed generators; there is no package-level shared state.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Gaussian draws one sample from N(mu, sigma^2).
func Gaussian(rng *rand.Rand, mu, sigma float64) float64 {
	return rng.NormFloat64()*sigma + mu
}

// Exponential draws from a shifted exponential distribution with the given
// minimum and mean. The paper (§3.1) models round-trip latency as an
// exponential with min 7.1s and mean 8.45s; the rate applies to the part
// above the minimum.
func Exponential(rng *rand.Rand, min, mean float64) float64 {
	if mean <= min {
		return min
	}
	return min + rng.ExpFloat64()*(mean-min)
}

// Zipf draws integers in [0, n) with a Zipf(s) popularity skew. Rank 0 is the
// most popular. It is used by the synthetic tweet generator for hashtag
// popularity.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf distribution over n ranks with exponent s > 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("simrand: NewZipf needs n > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Draw samples a rank in [0, n).
func (z *Zipf) Draw(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Categorical draws an index with probability proportional to weights[i].
// Zero or negative weights are treated as zero probability. It panics when
// all weights are non-positive.
func Categorical(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("simrand: Categorical with no positive weight")
	}
	u := rng.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u <= acc {
			return i
		}
	}
	return len(weights) - 1
}

// Perm returns a random permutation of [0, n).
func Perm(rng *rand.Rand, n int) []int {
	return rng.Perm(n)
}
