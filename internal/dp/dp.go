// Package dp implements the differentially private gradient perturbation
// used by the paper's Figure-11 experiment: per-gradient L2 clipping plus
// Gaussian noise (Abadi et al., CCS'16), and a numerical moments accountant
// that converts a (sampling ratio q, noise multiplier σ, steps T) triple
// into an (ε, δ) privacy guarantee.
package dp

import (
	"fmt"
	"math"
	"math/rand"
)

// Config parameterizes the Gaussian mechanism.
type Config struct {
	// ClipNorm is the L2 bound C applied to each gradient before noising.
	ClipNorm float64
	// NoiseMultiplier is σ: the noise std is σ·C (per gradient sum; divided
	// by the batch size for averaged gradients).
	NoiseMultiplier float64
	// BatchSize is the mini-batch size the gradient averages over.
	BatchSize int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ClipNorm <= 0 {
		return fmt.Errorf("dp: ClipNorm must be positive, got %v", c.ClipNorm)
	}
	if c.NoiseMultiplier < 0 {
		return fmt.Errorf("dp: NoiseMultiplier must be non-negative, got %v", c.NoiseMultiplier)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("dp: BatchSize must be positive, got %v", c.BatchSize)
	}
	return nil
}

// Perturb clips grad to ClipNorm and adds Gaussian noise with std
// σ·C/BatchSize per coordinate, in place. It returns the clipping factor
// applied (1 when no clipping occurred).
//
// Concurrency contract: Perturb performs no synchronization, and
// *rand.Rand is not safe for concurrent use — callers invoking Perturb
// from multiple goroutines must serialize access to rng or give each
// goroutine its own. The serving path does the latter via pipeline.NewDP,
// whose stage seeds a generator per push.
func Perturb(cfg Config, rng *rand.Rand, grad []float64) float64 {
	norm := 0.0
	for _, v := range grad {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	factor := 1.0
	if norm > cfg.ClipNorm {
		factor = cfg.ClipNorm / norm
		for i := range grad {
			grad[i] *= factor
		}
	}
	if cfg.NoiseMultiplier > 0 {
		std := cfg.NoiseMultiplier * cfg.ClipNorm / float64(cfg.BatchSize)
		for i := range grad {
			grad[i] += rng.NormFloat64() * std
		}
	}
	return factor
}

// logMoment computes T·α(λ) for the sampled Gaussian mechanism: the λ-th
// log-moment of the privacy loss, estimated by numerical integration over
// the mixture distribution μ = (1−q)·N(0,σ²) + q·N(1,σ²) (Abadi et al.,
// §3.2). The returned value already includes composition over T steps.
func logMoment(q, sigma float64, lambda int, steps int) float64 {
	// E_{z∼μ0}[(μ(z)/μ0(z))^λ] with μ0 = N(0,σ²).
	// Integrate over z ∈ [−L, L]·σ with Simpson's rule.
	const gridHalfWidth = 12.0
	const nPoints = 4001
	lo := -gridHalfWidth * sigma
	hi := gridHalfWidth*sigma + 1 // shift to cover the μ1 mode
	h := (hi - lo) / float64(nPoints-1)
	sum := 0.0
	for i := 0; i < nPoints; i++ {
		z := lo + float64(i)*h
		w := simpsonWeight(i, nPoints)
		mu0 := gaussPDF(z, 0, sigma)
		mu1 := gaussPDF(z, 1, sigma)
		mix := (1-q)*mu0 + q*mu1
		if mu0 == 0 {
			continue
		}
		ratio := mix / mu0
		sum += w * mu0 * math.Pow(ratio, float64(lambda))
	}
	moment := sum * h / 3
	if moment < 1 {
		moment = 1 // log-moment is non-negative
	}
	return float64(steps) * math.Log(moment)
}

func simpsonWeight(i, n int) float64 {
	if i == 0 || i == n-1 {
		return 1
	}
	if i%2 == 1 {
		return 4
	}
	return 2
}

func gaussPDF(x, mean, sigma float64) float64 {
	d := (x - mean) / sigma
	return math.Exp(-d*d/2) / (sigma * math.Sqrt(2*math.Pi))
}

// Epsilon returns the ε of an (ε, δ)-DP guarantee for T steps of the
// sampled Gaussian mechanism with sampling ratio q and noise multiplier σ,
// minimizing over moment orders λ ∈ [1, 64] (the moments-accountant bound
// ε = min_λ (T·α(λ) + log(1/δ))/λ).
func Epsilon(q, sigma float64, steps int, delta float64) (float64, error) {
	if q <= 0 || q > 1 {
		return 0, fmt.Errorf("dp: sampling ratio q=%v outside (0, 1]", q)
	}
	if sigma <= 0 {
		return 0, fmt.Errorf("dp: sigma must be positive, got %v", sigma)
	}
	if steps <= 0 {
		return 0, fmt.Errorf("dp: steps must be positive, got %d", steps)
	}
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("dp: delta=%v outside (0, 1)", delta)
	}
	best := math.Inf(1)
	for lambda := 1; lambda <= 64; lambda++ {
		alpha := logMoment(q, sigma, lambda, steps)
		eps := (alpha + math.Log(1/delta)) / float64(lambda)
		if eps < best {
			best = eps
		}
	}
	return best, nil
}

// SigmaFor inverts Epsilon: the smallest noise multiplier σ achieving
// (targetEps, delta)-DP over the given steps and sampling ratio, found by
// bisection. It returns an error when the target is unreachable within the
// search bracket.
func SigmaFor(q float64, targetEps float64, steps int, delta float64) (float64, error) {
	if targetEps <= 0 {
		return 0, fmt.Errorf("dp: target epsilon must be positive, got %v", targetEps)
	}
	lo, hi := 0.3, 64.0
	epsAt := func(sigma float64) float64 {
		e, err := Epsilon(q, sigma, steps, delta)
		if err != nil {
			return math.Inf(1)
		}
		return e
	}
	if epsAt(hi) > targetEps {
		return 0, fmt.Errorf("dp: ε=%v unreachable with σ ≤ %v", targetEps, hi)
	}
	if epsAt(lo) < targetEps {
		return lo, nil
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if epsAt(mid) > targetEps {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}
