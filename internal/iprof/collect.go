package iprof

import (
	"math/rand"

	"fleet/internal/device"
)

// PretrainingData is the offline dataset used to bootstrap both profilers:
// I-Prof's cold-start model consumes Observations (features → α); MAUI's
// linear model consumes the raw (batch size → cost) pairs.
type PretrainingData struct {
	Observations []Observation
	BatchSizes   []int
	Costs        []float64
}

// CollectConfig tunes the offline collection sweep, making the device
// profile feeding the cold-start model pluggable: the load harness sweeps
// tier-scaled fleets (device.Model.Scaled) with a scenario-specific bound.
// The zero value reproduces the paper's protocol.
type CollectConfig struct {
	// MaxBatch bounds the sweep's mini-batch size (default 1<<20).
	MaxBatch int
}

// The paper's protocol (§3.3) ends a device's sweep once a task costs
// stopFactor·SLO ("twice the SLO"), and spaces its tasks idleSec apart so
// the device cools down in between.
const (
	stopFactor = 2
	idleSec    = 30
)

// Collect reproduces the paper's offline collection protocol (§3.3): each
// training device executes learning tasks with mini-batch size increasing
// from 1 until the computation cost reaches twice the SLO, recording device
// features and measured slopes along the way.
func Collect(rng *rand.Rand, models []device.Model, kind Kind, slo float64) PretrainingData {
	return CollectWith(rng, models, kind, slo, CollectConfig{})
}

// CollectWith is Collect with a configurable sweep.
func CollectWith(rng *rand.Rand, models []device.Model, kind Kind, slo float64, cfg CollectConfig) PretrainingData {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1 << 20
	}
	var out PretrainingData
	for _, m := range models {
		d := device.New(m, rand.New(rand.NewSource(rng.Int63())))
		for n := 1; ; n = nextBatch(n) {
			res := d.Execute(n)
			cost := CostOf(res, kind)
			features := FeaturesOf(d, kind)
			out.Observations = append(out.Observations, Observation{
				DeviceModel: m.Name,
				Features:    features,
				Alpha:       cost / float64(n),
			})
			out.BatchSizes = append(out.BatchSizes, n)
			out.Costs = append(out.Costs, cost)
			d.Idle(idleSec) // requests are spaced out; devices cool in between
			if cost >= stopFactor*slo || n >= cfg.MaxBatch {
				break
			}
		}
	}
	return out
}

// nextBatch grows the sweep geometrically with a small linear start,
// mirroring "increasing from 1 till the computation time reaches twice the
// SLO" without executing thousands of tasks.
func nextBatch(n int) int {
	if n < 8 {
		return n + 1
	}
	return n + n/2
}

// CostOf is the kind-appropriate cost of an execution result.
func CostOf(res device.ExecResult, kind Kind) float64 {
	if kind == KindEnergy {
		return res.EnergyPct
	}
	return res.LatencySec
}

// FeaturesOf is the kind-appropriate feature vector of a device, what a
// task request and a push carry for I-Prof.
func FeaturesOf(d *device.Device, kind Kind) []float64 {
	if kind == KindEnergy {
		return d.EnergyFeatures()
	}
	return d.Features()
}
