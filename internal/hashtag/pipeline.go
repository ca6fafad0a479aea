package hashtag

import (
	"maps"
	"math/rand"
	"slices"

	"fleet/internal/metrics"
	"fleet/internal/simrand"
)

// CompareResult is the Figure-6 output: per-chunk F1@top-5 for the three
// systems and the aggregate Online-over-Standard quality boost.
type CompareResult struct {
	Online   metrics.Series
	Standard metrics.Series
	Baseline metrics.Series
	// Boost is mean(Online F1) / mean(Standard F1) over evaluated chunks
	// (the paper reports 2.3×).
	Boost float64
	// OnlineUpdates and StandardUpdates count gradient computations; the
	// two pipelines use the same gradients, only their timing differs.
	OnlineUpdates   int
	StandardUpdates int
}

// CompareOnlineVsStandard reproduces the §3.1 experiment. The stream is
// divided into shards of shardDays days; models are reset at each shard
// start. Within a shard:
//
//   - Online FL updates every hour with the previous hour's data and is
//     evaluated on the next hour;
//   - Standard FL updates once per day with the previous day's data
//     (high-availability constraint: devices only participate overnight)
//     and is evaluated on each chunk of the following day;
//   - the most-popular baseline re-ranks daily on the same window.
//
// Both pipelines consume identical gradients (one per user mini-batch);
// only the update timing differs. Evaluation covers the second day of each
// shard, where both models have training.
func CompareOnlineVsStandard(s *Stream, lr float64, seed int64, shardDays int) CompareResult {
	if shardDays <= 0 {
		shardDays = 2
	}
	cfg := s.Config
	totalHours := cfg.Days * 24
	shardHours := shardDays * 24

	var res CompareResult
	res.Online.Name = "Online FL"
	res.Standard.Name = "Standard FL"
	res.Baseline.Name = "Most popular (baseline)"

	for shardStart := 0; shardStart+shardHours <= totalHours; shardStart += shardHours {
		rngOnline := simrand.New(seed + int64(shardStart))
		rngStandard := simrand.New(seed + int64(shardStart))
		online := NewRecommender(cfg, rngOnline)
		standard := NewRecommender(cfg, rngStandard)
		var baseline MostPopularBaseline

		for h := shardStart; h < shardStart+shardHours && h < totalHours; h++ {
			chunk := s.Chunk(float64(h), float64(h+1))

			// From day 2 on, evaluate each chunk before anyone trains on it.
			if h >= shardStart+24 && len(chunk) > 0 {
				x := float64(h)
				res.Online.Add(x, online.F1At5(chunk))
				res.Standard.Add(x, standard.F1At5(chunk))
				res.Baseline.Add(x, baseline.F1At5(chunk))
			}

			// Online FL incorporates each hour's mini-batches as soon as the
			// hour passes.
			res.OnlineUpdates += online.TrainOn(chunk, lr)

			// Standard FL trains only overnight: at every day boundary it
			// replays the day's per-(user, hour) mini-batches — exactly the
			// gradients Online computed, just delayed.
			if (h-shardStart+1)%24 == 0 {
				dayStart := h - 23
				for hh := dayStart; hh <= h; hh++ {
					res.StandardUpdates += standard.TrainOn(s.Chunk(float64(hh), float64(hh+1)), lr)
				}
				baseline.TrainOn(s.Chunk(float64(dayStart), float64(h+1)), cfg.MaxHashtags)
			}
		}
	}
	stdMean := res.Standard.MeanY()
	if stdMean > 0 {
		res.Boost = res.Online.MeanY() / stdMean
	}
	return res
}

// EnergyStats summarizes the per-user daily energy cost of Online FL
// (§3.1): the paper measures 4 / 3.3 / 13.4 / 44 mWh for
// mean / median / p99 / max on a Raspberry Pi-class worker.
type EnergyStats struct {
	MeanMWh   float64
	MedianMWh float64
	P99MWh    float64
	MaxMWh    float64
	// PctOfBattery is the mean daily drain as a percentage of an
	// 11,000 mWh smartphone battery (the paper reports 0.036%).
	PctOfBattery float64
}

// Raspberry Pi-class worker power model measured in §3.1: idle 1.9 W,
// 2.1 W at batch size 1 rising to 2.3 W at batch 100; latency 5.6 s at
// batch 1 rising to 8.4 s at batch 100.
func updateEnergyMWh(batch int, rng *rand.Rand) float64 {
	if batch < 1 {
		batch = 1
	}
	f := float64(batch)
	if f > 100 {
		f = 100
	}
	activeW := 2.1 + 0.2*f/100
	latencyS := 5.6 + 2.8*f/100
	noise := 1 + rng.NormFloat64()*0.05
	// Energy above idle attributable to the gradient computation.
	return (activeW - 1.9) * latencyS * noise / 3600 * 1000
}

// MeasureEnergy computes per-user daily energy statistics for the Online FL
// update schedule of a stream: each user performs one gradient computation
// per hour in which they produced data, with their mini-batch size equal to
// their tweet count in that hour.
func MeasureEnergy(s *Stream, seed int64) EnergyStats {
	rng := simrand.New(seed)
	cfg := s.Config
	totalHours := cfg.Days * 24
	// daily[user][day] accumulates mWh.
	daily := make(map[int]map[int]float64)
	for h := 0; h < totalHours; h++ {
		byUser := GroupByUser(s.Chunk(float64(h), float64(h+1)))
		// User-id order, here and below: the noise stream and the order
		// of summation must not depend on map iteration.
		for _, u := range slices.Sorted(maps.Keys(byUser)) {
			if daily[u] == nil {
				daily[u] = make(map[int]float64)
			}
			daily[u][h/24] += updateEnergyMWh(len(byUser[u]), rng)
		}
	}
	var values []float64
	for _, u := range slices.Sorted(maps.Keys(daily)) {
		for _, day := range slices.Sorted(maps.Keys(daily[u])) {
			values = append(values, daily[u][day])
		}
	}
	if len(values) == 0 {
		return EnergyStats{}
	}
	mean := metrics.Mean(values)
	return EnergyStats{
		MeanMWh:      mean,
		MedianMWh:    metrics.Median(values),
		P99MWh:       metrics.Percentile(values, 99),
		MaxMWh:       metrics.Max(values),
		PctOfBattery: mean / 11000 * 100,
	}
}
