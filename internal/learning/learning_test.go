package learning

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSSGDAlwaysFullWeight(t *testing.T) {
	var alg SSGD
	if alg.Scale(GradientMeta{Staleness: 100}) != 1 {
		t.Fatal("SSGD must not dampen")
	}
	if alg.Name() != "SSGD" {
		t.Fatal("name")
	}
}

func TestFedAvgStalenessUnaware(t *testing.T) {
	var alg FedAvg
	for _, tau := range []int{0, 1, 50} {
		if alg.Scale(GradientMeta{Staleness: tau}) != 1 {
			t.Fatalf("FedAvg must apply full weight at staleness %d", tau)
		}
	}
}

func TestDynSGDInverseDampening(t *testing.T) {
	var alg DynSGD
	cases := []struct {
		tau  int
		want float64
	}{{0, 1}, {1, 0.5}, {3, 0.25}, {9, 0.1}}
	for _, c := range cases {
		if got := alg.Scale(GradientMeta{Staleness: c.tau}); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("DynSGD scale(τ=%d) = %v, want %v", c.tau, got, c.want)
		}
	}
}

func TestInverseDampeningNegativeClamped(t *testing.T) {
	if got := InverseDampening(-5); got != 1 {
		t.Errorf("negative staleness should clamp to 1, got %v", got)
	}
}

func TestExponentialDampeningIntersectsInverseAtHalfThres(t *testing.T) {
	// The defining property of β (§2.3): at τ = τ_thres/2 the exponential
	// equals the inverse dampening.
	for _, tauThres := range []float64{12, 24, 48} {
		half := int(tauThres / 2)
		exp := ExponentialDampening(half, tauThres)
		inv := InverseDampening(half)
		if math.Abs(exp-inv) > 1e-9 {
			t.Errorf("τ_thres=%v: exp(τ/2)=%v, inv(τ/2)=%v; must intersect", tauThres, exp, inv)
		}
	}
}

func TestExponentialDampeningShape(t *testing.T) {
	const tauThres = 24.0
	// Monotone decreasing, 1 at zero.
	if got := ExponentialDampening(0, tauThres); got != 1 {
		t.Fatalf("Λ(0) = %v, want 1", got)
	}
	prev := 1.0
	for tau := 1; tau <= 60; tau++ {
		v := ExponentialDampening(tau, tauThres)
		if v >= prev {
			t.Fatalf("Λ not strictly decreasing at τ=%d", tau)
		}
		prev = v
	}
	// The paper's hypothesis: beyond the intersection, exponential dampening
	// is *stronger* than inverse (stale gradients hurt exponentially).
	for tau := int(tauThres); tau <= 60; tau += 6 {
		if ExponentialDampening(tau, tauThres) >= InverseDampening(tau) {
			t.Errorf("exp dampening should be below inverse at τ=%d > τ_thres/2", tau)
		}
	}
	// And weaker before it.
	for tau := 1; tau < int(tauThres/2); tau++ {
		if ExponentialDampening(tau, tauThres) <= InverseDampening(tau) {
			t.Errorf("exp dampening should be above inverse at τ=%d < τ_thres/2", tau)
		}
	}
}

func TestExponentialDampeningDegenerateThreshold(t *testing.T) {
	got := ExponentialDampening(3, 0)
	if got <= 0 || got >= 1 {
		t.Errorf("degenerate threshold should still dampen into (0,1), got %v", got)
	}
}

func TestAdaSGDBootstrapUsesInverse(t *testing.T) {
	alg := NewAdaSGD(AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 10, DisableSimilarityBoost: true})
	got := alg.Scale(GradientMeta{Staleness: 4, Similarity: 1})
	want := InverseDampening(4)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("bootstrap scale = %v, want inverse %v", got, want)
	}
}

func TestAdaSGDSwitchesToExponential(t *testing.T) {
	alg := NewAdaSGD(AdaSGDConfig{NonStragglerPct: 90, BootstrapSteps: 5, DisableSimilarityBoost: true})
	for i := 0; i < 100; i++ {
		alg.Observe(GradientMeta{Staleness: i % 13})
	}
	tauThres := alg.tracker.Quantile(0.90)
	if tauThres <= 0 {
		t.Fatalf("τ_thres = %v, want > 0", tauThres)
	}
	got := alg.Scale(GradientMeta{Staleness: 6, Similarity: 1})
	want := ExponentialDampening(6, tauThres)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("scale = %v, want exponential %v", got, want)
	}
}

func TestAdaSGDSimilarityBoost(t *testing.T) {
	alg := NewAdaSGD(AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 0})
	for i := 0; i < 50; i++ {
		alg.Observe(GradientMeta{Staleness: 5})
	}
	damped := alg.Scale(GradientMeta{Staleness: 20, Similarity: 1})
	boosted := alg.Scale(GradientMeta{Staleness: 20, Similarity: 0.1})
	if boosted <= damped {
		t.Fatalf("low similarity must boost: sim=1 -> %v, sim=0.1 -> %v", damped, boosted)
	}
	if boosted > 1 {
		t.Fatalf("scale must be capped at 1, got %v", boosted)
	}
}

func TestAdaSGDZeroSimilarityFullBoost(t *testing.T) {
	alg := NewAdaSGD(AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 0})
	for i := 0; i < 50; i++ {
		alg.Observe(GradientMeta{Staleness: 5})
	}
	if got := alg.Scale(GradientMeta{Staleness: 48, Similarity: 0}); got != 1 {
		t.Fatalf("entirely novel labels must get scale 1, got %v", got)
	}
}

func TestAdaSGDScaleBounds(t *testing.T) {
	alg := NewAdaSGD(AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 3})
	err := quick.Check(func(tau uint8, sim float64) bool {
		s := math.Abs(math.Mod(sim, 1))
		v := alg.Scale(GradientMeta{Staleness: int(tau), Similarity: s})
		alg.Observe(GradientMeta{Staleness: int(tau)})
		return v >= 0 && v <= 1
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestAdaSGDPanicsOnBadPct(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAdaSGD(AdaSGDConfig{NonStragglerPct: 0})
}

func TestStalenessTrackerQuantile(t *testing.T) {
	tr := NewStalenessTracker(100)
	for i := 1; i <= 100; i++ {
		tr.Add(i)
	}
	if got := tr.Quantile(0.5); got != 50 {
		t.Errorf("median = %v, want 50", got)
	}
	if got := tr.Quantile(0.99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	if got := tr.Quantile(1); got != 100 {
		t.Errorf("max = %v, want 100", got)
	}
}

func TestStalenessTrackerRingBuffer(t *testing.T) {
	tr := NewStalenessTracker(4)
	for i := 0; i < 100; i++ {
		tr.Add(1)
	}
	tr.Add(1000)
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if got := tr.Quantile(1); got != 1000 {
		t.Errorf("max after ring wrap = %v, want 1000", got)
	}
}

func TestStalenessTrackerEmpty(t *testing.T) {
	tr := NewStalenessTracker(10)
	if got := tr.Quantile(0.99); got != 0 {
		t.Errorf("empty tracker quantile = %v, want 0", got)
	}
}

func TestStalenessTrackerClampsNegative(t *testing.T) {
	tr := NewStalenessTracker(10)
	tr.Add(-5)
	if got := tr.Quantile(1); got != 0 {
		t.Errorf("negative staleness should clamp to 0, got %v", got)
	}
}

func TestBhattacharyyaIdenticalIsOne(t *testing.T) {
	p := []float64{0.2, 0.3, 0.5}
	if got := Bhattacharyya(p, p); math.Abs(got-1) > 1e-12 {
		t.Errorf("BC(p,p) = %v, want 1", got)
	}
}

func TestBhattacharyyaDisjointIsZero(t *testing.T) {
	if got := Bhattacharyya([]float64{1, 0}, []float64{0, 1}); got != 0 {
		t.Errorf("disjoint BC = %v, want 0", got)
	}
}

func TestBhattacharyyaAcceptsRawCounts(t *testing.T) {
	a := Bhattacharyya([]float64{2, 4}, []float64{1, 2})
	if math.Abs(a-1) > 1e-12 {
		t.Errorf("same shape distributions should give 1, got %v", a)
	}
}

func TestBhattacharyyaPaperExample(t *testing.T) {
	// §2.3 example: 4 labels, local data = 1 example of label 0, 2 of
	// label 1 -> LD = [1/3, 2/3, 0, 0].
	local := []float64{1, 2, 0, 0}
	uniform := []float64{1, 1, 1, 1}
	got := Bhattacharyya(local, uniform)
	want := math.Sqrt(1.0/3*0.25) + math.Sqrt(2.0/3*0.25)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("BC = %v, want %v", got, want)
	}
}

func TestBhattacharyyaSymmetric(t *testing.T) {
	err := quick.Check(func(a, b [4]float64) bool {
		p := make([]float64, 4)
		q := make([]float64, 4)
		for i := range p {
			p[i] = math.Abs(math.Mod(a[i], 10))
			q[i] = math.Abs(math.Mod(b[i], 10))
		}
		x, y := Bhattacharyya(p, q), Bhattacharyya(q, p)
		return math.Abs(x-y) < 1e-12 && x >= 0 && x <= 1
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestBhattacharyyaPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Bhattacharyya([]float64{1}, []float64{1, 2})
}

func TestLabelTrackerLifecycle(t *testing.T) {
	lt := NewLabelTracker(4)
	// Before any record: similarity is 1 (no basis to boost).
	if got := lt.Similarity([]int{5, 0, 0, 0}); got != 1 {
		t.Fatalf("empty-tracker similarity = %v, want 1", got)
	}
	lt.RecordWeighted([]int{10, 10, 0, 0}, 1)
	// A local dataset matching the global distribution has sim 1.
	if got := lt.Similarity([]int{1, 1, 0, 0}); math.Abs(got-1) > 1e-12 {
		t.Errorf("matching similarity = %v, want 1", got)
	}
	// A dataset of unseen labels has sim 0.
	if got := lt.Similarity([]int{0, 0, 3, 3}); got != 0 {
		t.Errorf("unseen-label similarity = %v, want 0", got)
	}
	if st := lt.ExportState(); st.Counts[0] != 10 || st.Counts[1] != 10 || st.Total != 20 {
		t.Errorf("LD_global = %+v", st)
	}
}

func TestLabelTrackerEmptyDistribution(t *testing.T) {
	lt := NewLabelTracker(3)
	st := lt.ExportState()
	if len(st.Counts) != 3 || st.Total != 0 {
		t.Fatalf("empty tracker state = %+v", st)
	}
	for _, v := range st.Counts {
		if v != 0 {
			t.Fatal("empty tracker must hold a zero distribution")
		}
	}
}

func TestLabelTrackerIgnoresOverflowIndices(t *testing.T) {
	lt := NewLabelTracker(2)
	lt.RecordWeighted([]int{1, 1, 99}, 1) // third entry must be ignored
	if st := lt.ExportState(); len(st.Counts) != 2 || st.Total != 2 {
		t.Errorf("LD_global = %+v", st)
	}
}

func TestAbsorbWeightExcludesBoost(t *testing.T) {
	// AbsorbWeight is the pure dampening: for a boosted straggler the
	// applied scale is much larger than the absorbed label weight.
	alg := NewAdaSGD(AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 0})
	for i := 0; i < 100; i++ {
		alg.Observe(GradientMeta{Staleness: 6})
	}
	meta := GradientMeta{Staleness: 24, Similarity: 0.01} // below simFloor
	scale := alg.Scale(meta)
	absorb := alg.AbsorbWeight(meta)
	if scale != 1 {
		t.Fatalf("boosted straggler scale %v, want 1", scale)
	}
	if absorb >= scale/10 {
		t.Fatalf("absorb weight %v should be far below boosted scale %v", absorb, scale)
	}
}

func TestAbsorbWeightBaselines(t *testing.T) {
	meta := GradientMeta{Staleness: 4}
	if (SSGD{}).AbsorbWeight(meta) != 1 || (FedAvg{}).AbsorbWeight(meta) != 1 {
		t.Fatal("staleness-unaware absorb weights must be 1")
	}
	if got := (DynSGD{}).AbsorbWeight(meta); got != InverseDampening(4) {
		t.Fatalf("DynSGD absorb = %v", got)
	}
}
