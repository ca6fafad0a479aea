// Package hashtag implements the Online-vs-Standard-FL workload of §3.1: a
// temporal tweet stream with fast-churning hashtag popularity, a trainable
// hashtag recommender, the two training pipelines (hourly Online FL vs
// daily Standard FL), the most-popular baseline, and the staleness-trace
// analysis of Figure 7.
//
// The paper's 2.6M crawled tweets are not available offline; the generator
// below reproduces the property the experiment measures — topical drift
// between training and evaluation windows. Hashtags are born throughout the
// stream, their popularity decays exponentially (half-life of hours), and
// tweet text is drawn from per-hashtag token distributions, so a model
// trained on stale data recommends dead hashtags.
package hashtag

import (
	"math"
	"math/rand"
	"sort"

	"fleet/internal/simrand"
)

// Tweet is one synthetic tweet.
type Tweet struct {
	// TimeSec is seconds since stream start.
	TimeSec float64
	// UserID identifies the author; mini-batches are grouped by user as in
	// the paper.
	UserID int
	// Tokens is the bag-of-words token ids of the tweet body.
	Tokens []int
	// Hashtags is the ground-truth hashtag ids.
	Hashtags []int
}

// StreamConfig parameterizes the generator.
type StreamConfig struct {
	// Days is the stream length (the paper crawls 13 days).
	Days int
	// Vocab is the token vocabulary size.
	Vocab int
	// MaxHashtags is the hashtag id space.
	MaxHashtags int
	// InitialHashtags exist at stream start; the rest are born over time.
	InitialHashtags int
	// NewPerHour is the expected number of newly born hashtags per hour.
	NewPerHour float64
	// HalfLifeHours is the popularity half-life (the data's temporality).
	HalfLifeHours float64
	// TweetsPerHour is the average tweet volume.
	TweetsPerHour int
	// Users is the population size.
	Users int
	// SignatureTokens is how many vocabulary tokens identify one hashtag.
	SignatureTokens int
	// TokensPerTweet is the tweet body length.
	TokensPerTweet int
	// PeakHours adds volume spikes (×5) at random hours, producing the
	// long-tail staleness of Figure 7.
	PeakHours int
	Seed      int64
}

// DefaultStreamConfig returns the configuration used by the Figure-6/7
// experiments at CI-friendly volume.
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{
		Days:            13,
		Vocab:           800,
		MaxHashtags:     200,
		InitialHashtags: 40,
		NewPerHour:      0.4,
		HalfLifeHours:   4,
		TweetsPerHour:   60,
		Users:           50,
		SignatureTokens: 4,
		TokensPerTweet:  8,
		PeakHours:       6,
		Seed:            1,
	}
}

type hashtagState struct {
	birthSec float64
	weight   float64
}

// Stream is a generated tweet stream plus its hashtag metadata.
type Stream struct {
	Config StreamConfig
	Tweets []Tweet
}

// Generate builds a deterministic synthetic stream.
func Generate(cfg StreamConfig) *Stream {
	rng := simrand.New(cfg.Seed)
	totalHours := cfg.Days * 24

	tags := make([]hashtagState, 0, cfg.MaxHashtags)
	zipf := simrand.NewZipf(cfg.MaxHashtags, 1.1)
	for i := 0; i < cfg.InitialHashtags && i < cfg.MaxHashtags; i++ {
		tags = append(tags, hashtagState{
			birthSec: 0,
			weight:   1.0 / math.Pow(float64(zipf.Draw(rng)+1), 0.5),
		})
	}

	peaks := map[int]bool{}
	for len(peaks) < cfg.PeakHours {
		peaks[rng.Intn(totalHours)] = true
	}

	var tweets []Tweet
	for hour := 0; hour < totalHours; hour++ {
		// Birth new hashtags.
		for len(tags) < cfg.MaxHashtags && rng.Float64() < cfg.NewPerHour {
			tags = append(tags, hashtagState{
				birthSec: float64(hour) * 3600,
				// Newborn hashtags burst: they start hot.
				weight: 0.5 + rng.Float64(),
			})
		}
		volume := cfg.TweetsPerHour
		// Diurnal pattern: fewer tweets at night.
		dayPhase := math.Sin(2 * math.Pi * float64(hour%24) / 24)
		volume = int(float64(volume) * (1 + 0.4*dayPhase))
		if peaks[hour] {
			volume *= 5
		}
		if volume < 1 {
			volume = 1
		}
		for i := 0; i < volume; i++ {
			tSec := (float64(hour) + rng.Float64()) * 3600
			tag := drawHashtag(rng, tags, tSec, cfg.HalfLifeHours)
			if tag < 0 {
				continue
			}
			tweets = append(tweets, Tweet{
				TimeSec:  tSec,
				UserID:   rng.Intn(cfg.Users),
				Tokens:   drawTokens(rng, cfg, tag),
				Hashtags: []int{tag},
			})
		}
	}
	sort.Slice(tweets, func(i, j int) bool { return tweets[i].TimeSec < tweets[j].TimeSec })
	return &Stream{Config: cfg, Tweets: tweets}
}

// drawHashtag samples a hashtag proportional to its decayed popularity.
func drawHashtag(rng *rand.Rand, tags []hashtagState, tSec, halfLifeHours float64) int {
	weights := make([]float64, len(tags))
	any := false
	for i, h := range tags {
		if h.birthSec > tSec {
			continue
		}
		ageHours := (tSec - h.birthSec) / 3600
		weights[i] = h.weight * math.Exp2(-ageHours/halfLifeHours)
		if weights[i] > 0 {
			any = true
		}
	}
	if !any {
		return -1
	}
	return simrand.Categorical(rng, weights)
}

// drawTokens emits the tweet body: mostly the hashtag's signature tokens,
// the rest uniform noise.
func drawTokens(rng *rand.Rand, cfg StreamConfig, tag int) []int {
	tokens := make([]int, cfg.TokensPerTweet)
	for i := range tokens {
		if rng.Float64() < 0.7 {
			sig := tag*cfg.SignatureTokens + rng.Intn(cfg.SignatureTokens)
			tokens[i] = sig % cfg.Vocab
		} else {
			tokens[i] = rng.Intn(cfg.Vocab)
		}
	}
	return tokens
}

// Chunk returns the tweets with TimeSec in [fromHour, toHour) hours.
func (s *Stream) Chunk(fromHour, toHour float64) []Tweet {
	var out []Tweet
	lo, hi := fromHour*3600, toHour*3600
	for _, t := range s.Tweets {
		if t.TimeSec >= lo && t.TimeSec < hi {
			out = append(out, t)
		}
	}
	return out
}

// GroupByUser partitions tweets into per-user mini-batches (the paper
// groups training data by user id).
func GroupByUser(tweets []Tweet) map[int][]Tweet {
	out := make(map[int][]Tweet)
	for _, t := range tweets {
		out[t.UserID] = append(out[t.UserID], t)
	}
	return out
}

// Timestamps generates only the task start times of a tweet stream —
// diurnal volume plus ×5 peak-hour bursts — without materializing tweet
// bodies. The Figure-7 staleness analysis needs the paper's full crawl
// volume (~8,300 tweets/hour); generating timestamps alone keeps that
// cheap.
func Timestamps(days, perHour, peakHours int, seed int64) []float64 {
	rng := simrand.New(seed)
	totalHours := days * 24
	peaks := map[int]bool{}
	for len(peaks) < peakHours {
		peaks[rng.Intn(totalHours)] = true
	}
	var out []float64
	for hour := 0; hour < totalHours; hour++ {
		volume := perHour
		dayPhase := math.Sin(2 * math.Pi * float64(hour%24) / 24)
		volume = int(float64(volume) * (1 + 0.4*dayPhase))
		if peaks[hour] {
			volume *= 5
		}
		for i := 0; i < volume; i++ {
			out = append(out, (float64(hour)+rng.Float64())*3600)
		}
	}
	sort.Float64s(out)
	return out
}

// StalenessOfTimestamps reproduces the Figure-7 analysis: every task
// starting at one of the given (sorted) times has a round-trip latency drawn
// from a shifted exponential (min 7.1 s, mean 8.45 s as estimated in §3.1);
// the staleness of a task is the number of other tasks that complete between
// its model pull and its gradient push.
func StalenessOfTimestamps(starts []float64, rng *rand.Rand, minLatencySec, meanLatencySec float64) []int {
	n := len(starts)
	completions := make([]float64, n)
	for i, t := range starts {
		completions[i] = t + simrand.Exponential(rng, minLatencySec, meanLatencySec)
	}
	sortedCompletions := make([]float64, n)
	copy(sortedCompletions, completions)
	sort.Float64s(sortedCompletions)
	staleness := make([]int, n)
	for i := range starts {
		// Updates applied between this task's pull and its push.
		lo := sort.SearchFloat64s(sortedCompletions, starts[i])
		hi := sort.SearchFloat64s(sortedCompletions, completions[i])
		st := hi - lo - 1 // exclude the task's own completion
		if st < 0 {
			st = 0
		}
		staleness[i] = st
	}
	return staleness
}
