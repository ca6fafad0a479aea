package hashtag

import (
	"math"
	"testing"

	"fleet/internal/metrics"
	"fleet/internal/simrand"
)

func smallConfig() StreamConfig {
	cfg := DefaultStreamConfig()
	cfg.Days = 4
	cfg.TweetsPerHour = 30
	cfg.Vocab = 400
	cfg.MaxHashtags = 100
	cfg.InitialHashtags = 15
	return cfg
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallConfig())
	b := Generate(smallConfig())
	if len(a.Tweets) != len(b.Tweets) {
		t.Fatal("stream sizes differ for same seed")
	}
	for i := range a.Tweets {
		if a.Tweets[i].TimeSec != b.Tweets[i].TimeSec || a.Tweets[i].Hashtags[0] != b.Tweets[i].Hashtags[0] {
			t.Fatal("streams differ for same seed")
		}
	}
}

func TestGenerateStreamShape(t *testing.T) {
	cfg := smallConfig()
	s := Generate(cfg)
	if len(s.Tweets) < cfg.Days*24*cfg.TweetsPerHour/3 {
		t.Fatalf("stream too small: %d tweets", len(s.Tweets))
	}
	lastT := -1.0
	maxSec := float64(cfg.Days*24) * 3600
	for _, tw := range s.Tweets {
		if tw.TimeSec < lastT {
			t.Fatal("tweets not time-ordered")
		}
		lastT = tw.TimeSec
		if tw.TimeSec < 0 || tw.TimeSec > maxSec {
			t.Fatalf("tweet at %v outside stream", tw.TimeSec)
		}
		if tw.UserID < 0 || tw.UserID >= cfg.Users {
			t.Fatalf("user %d out of range", tw.UserID)
		}
		if len(tw.Tokens) != cfg.TokensPerTweet {
			t.Fatalf("tweet has %d tokens", len(tw.Tokens))
		}
		if len(tw.Hashtags) == 0 {
			t.Fatal("tweet without hashtag")
		}
	}
}

func TestHashtagChurn(t *testing.T) {
	// Hashtags popular on day 1 must fade by day 4 (temporality), and new
	// hashtags must appear.
	cfg := smallConfig()
	s := Generate(cfg)
	early := map[int]int{}
	late := map[int]int{}
	for _, tw := range s.Chunk(0, 24) {
		early[tw.Hashtags[0]]++
	}
	for _, tw := range s.Chunk(72, 96) {
		late[tw.Hashtags[0]]++
	}
	newTags := 0
	for h := range late {
		if early[h] == 0 {
			newTags++
		}
	}
	if newTags == 0 {
		t.Fatal("no new hashtags between day 1 and day 4; churn broken")
	}
}

func TestChunkBoundaries(t *testing.T) {
	s := Generate(smallConfig())
	c := s.Chunk(5, 6)
	for _, tw := range c {
		if tw.TimeSec < 5*3600 || tw.TimeSec >= 6*3600 {
			t.Fatalf("tweet at %v outside chunk [5h, 6h)", tw.TimeSec)
		}
	}
}

func TestGroupByUser(t *testing.T) {
	s := Generate(smallConfig())
	chunk := s.Chunk(0, 24)
	groups := GroupByUser(chunk)
	total := 0
	for u, tweets := range groups {
		total += len(tweets)
		for _, tw := range tweets {
			if tw.UserID != u {
				t.Fatal("tweet grouped under wrong user")
			}
		}
	}
	if total != len(chunk) {
		t.Fatalf("grouping lost tweets: %d of %d", total, len(chunk))
	}
}

func TestRecommenderLearnsCurrentChunk(t *testing.T) {
	cfg := smallConfig()
	s := Generate(cfg)
	rng := simrand.New(2)
	r := NewRecommender(cfg, rng)
	train := s.Chunk(0, 24)
	before := r.F1At5(train)
	for epoch := 0; epoch < 3; epoch++ {
		r.TrainOn(train, 2.0)
	}
	after := r.F1At5(train)
	if after <= before || after < 0.2 {
		t.Fatalf("training F1 %v -> %v; recommender not learning", before, after)
	}
}

func TestTopKShapeAndRange(t *testing.T) {
	cfg := smallConfig()
	r := NewRecommender(cfg, simrand.New(3))
	top := r.TopK([]int{1, 2, 3}, 5)
	if len(top) != 5 {
		t.Fatalf("TopK returned %d items", len(top))
	}
	seen := map[int]bool{}
	for _, h := range top {
		if h < 0 || h >= cfg.MaxHashtags || seen[h] {
			t.Fatalf("invalid TopK %v", top)
		}
		seen[h] = true
	}
}

func TestGradientEmptyBatch(t *testing.T) {
	cfg := smallConfig()
	r := NewRecommender(cfg, simrand.New(4))
	if g := r.Gradient(nil); g != nil {
		t.Fatal("empty batch must yield nil gradient")
	}
}

func TestMostPopularBaseline(t *testing.T) {
	var b MostPopularBaseline
	tweets := []Tweet{
		{Hashtags: []int{3}}, {Hashtags: []int{3}}, {Hashtags: []int{3}},
		{Hashtags: []int{1}}, {Hashtags: []int{1}},
		{Hashtags: []int{2}},
	}
	b.TrainOn(tweets, 10)
	if b.top[0] != 3 || b.top[1] != 1 || b.top[2] != 2 {
		t.Fatalf("baseline top = %v", b.top)
	}
	f1 := b.F1At5([]Tweet{{Hashtags: []int{3}}})
	if f1 <= 0 {
		t.Fatal("baseline must hit the most popular hashtag")
	}
}

func TestCompareOnlineBeatsStandard(t *testing.T) {
	// Figure 6's headline: Online FL delivers a substantial quality boost
	// on high-temporality data. The paper reports 2.3×; we require > 1.3×
	// at CI scale.
	cfg := smallConfig()
	cfg.Days = 6
	s := Generate(cfg)
	res := CompareOnlineVsStandard(s, 2.0, 7, 2)
	if len(res.Online.Y) == 0 {
		t.Fatal("no evaluation points")
	}
	if res.Boost < 1.3 {
		t.Fatalf("online/standard boost = %v, want > 1.3", res.Boost)
	}
	// Baseline should trail the trained models (highly temporal data).
	if res.Baseline.MeanY() > res.Online.MeanY() {
		t.Fatalf("baseline (%v) should not beat Online FL (%v)",
			res.Baseline.MeanY(), res.Online.MeanY())
	}
}

func TestCompareUpdateParity(t *testing.T) {
	// The two pipelines must perform a comparable number of gradient
	// computations (the paper stresses the difference is timing only).
	cfg := smallConfig()
	s := Generate(cfg)
	res := CompareOnlineVsStandard(s, 2.0, 8, 2)
	if res.OnlineUpdates == 0 || res.StandardUpdates == 0 {
		t.Fatal("missing updates")
	}
	// Both pipelines replay the same per-(user, hour) mini-batches; the
	// gradient counts must match exactly.
	if res.OnlineUpdates != res.StandardUpdates {
		t.Fatalf("gradient parity broken: online %d, standard %d",
			res.OnlineUpdates, res.StandardUpdates)
	}
}

func TestStalenessTraceShape(t *testing.T) {
	// Figure 7: staleness is centred near the ratio of latency to
	// inter-arrival time with a long tail from peak hours.
	cfg := smallConfig()
	cfg.Days = 6
	s := Generate(cfg)
	rng := simrand.New(9)
	starts := make([]float64, len(s.Tweets))
	for i, tw := range s.Tweets {
		starts[i] = tw.TimeSec
	}
	trace := StalenessOfTimestamps(starts, rng, 7.1, 8.45)
	if len(trace) != len(s.Tweets) {
		t.Fatal("one staleness value per task expected")
	}
	var vals []float64
	for _, v := range trace {
		if v < 0 {
			t.Fatal("negative staleness")
		}
		vals = append(vals, float64(v))
	}
	mean := metrics.Mean(vals)
	if mean <= 0 {
		t.Fatal("staleness should not be all zero")
	}
	// Long tail: max well above the median.
	if metrics.Max(vals) < 3*metrics.Median(vals) {
		t.Fatalf("no long tail: max %v, median %v", metrics.Max(vals), metrics.Median(vals))
	}
}

func TestMeasureEnergyPlausible(t *testing.T) {
	cfg := smallConfig()
	s := Generate(cfg)
	stats := MeasureEnergy(s, 10)
	if stats.MeanMWh <= 0 {
		t.Fatal("no energy measured")
	}
	// The paper's scale: a few mWh per user-day, a tiny battery fraction.
	if stats.MeanMWh > 100 {
		t.Fatalf("mean daily energy %v mWh implausibly high", stats.MeanMWh)
	}
	if stats.PctOfBattery > 1 {
		t.Fatalf("battery drain %v%% implausibly high", stats.PctOfBattery)
	}
	if stats.MaxMWh < stats.MedianMWh {
		t.Fatal("max below median")
	}
	if math.IsNaN(stats.P99MWh) {
		t.Fatal("NaN p99")
	}
}

func TestTimestampsShape(t *testing.T) {
	ts := Timestamps(2, 100, 2, 3)
	if len(ts) < 2*24*100/2 {
		t.Fatalf("only %d timestamps", len(ts))
	}
	last := -1.0
	for _, v := range ts {
		if v < last {
			t.Fatal("timestamps not sorted")
		}
		last = v
		if v < 0 || v > 2*24*3600 {
			t.Fatalf("timestamp %v outside stream", v)
		}
	}
}

func TestTimestampsPeaksIncreaseVolume(t *testing.T) {
	quiet := Timestamps(4, 100, 0, 5)
	bursty := Timestamps(4, 100, 10, 5)
	if len(bursty) <= len(quiet) {
		t.Fatalf("peak hours should add volume: %d vs %d", len(bursty), len(quiet))
	}
}

func TestStalenessOfTimestampsDense(t *testing.T) {
	// Dense arrivals (1/s) with ~8s latency must yield staleness around 8.
	var starts []float64
	for i := 0; i < 5000; i++ {
		starts = append(starts, float64(i))
	}
	rng := simrand.New(6)
	trace := StalenessOfTimestamps(starts, rng, 7.1, 8.45)
	var sum float64
	for _, v := range trace {
		sum += float64(v)
	}
	mean := sum / float64(len(trace))
	if mean < 5 || mean > 12 {
		t.Fatalf("mean staleness %v, want ≈8 (latency × rate)", mean)
	}
}
