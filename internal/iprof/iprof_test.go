package iprof

import (
	"math"
	"testing"

	"fleet/internal/device"
	"fleet/internal/simrand"
)

// trainingModels returns a subset of the catalogue used for offline
// pretraining (disjoint from test devices, as in §3.3).
func trainingModels(t *testing.T) []device.Model {
	t.Helper()
	names := []string{"Galaxy S6", "Nexus 5", "MotoG3", "Pixel", "HTC U11", "Venue 8"}
	var out []device.Model
	for _, n := range names {
		m, err := device.ModelByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

func newTimeProfiler(t *testing.T) *IProf {
	t.Helper()
	rng := simrand.New(1)
	data := Collect(rng, trainingModels(t), KindTime, 3.0)
	p, err := New(Config{Epsilon: 0.1, RetrainEvery: 50}, data.Observations)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewRequiresPretraining(t *testing.T) {
	if _, err := New(Config{Epsilon: 0.1}, nil); err == nil {
		t.Fatal("want error without pretraining data")
	}
}

func TestNewRejectsNegativeEpsilon(t *testing.T) {
	obs := []Observation{{Features: []float64{1, 2}, Alpha: 0.01}}
	if _, err := New(Config{Epsilon: -1}, obs); err == nil {
		t.Fatal("want error on negative epsilon")
	}
}

func TestColdStartPredictsReasonableAlpha(t *testing.T) {
	p := newTimeProfiler(t)
	m, _ := device.ModelByName("Galaxy S7")
	d := device.New(m, simrand.New(2))
	alpha := p.PredictAlpha(m.Name, d.Features())
	// True slope is 0.006 s/sample; the cold-start estimate has never seen
	// this device model, so only an order-of-magnitude check is meaningful
	// (the paper's Figure 12(c) likewise shows visible first-request error).
	if alpha < 0.0006 || alpha > 0.06 {
		t.Fatalf("cold-start α = %v, want within [0.0006, 0.06]", alpha)
	}
}

func TestEquation1BatchSize(t *testing.T) {
	obs := []Observation{
		{Features: []float64{1, 0}, Alpha: 0.01},
		{Features: []float64{1, 1}, Alpha: 0.02},
		{Features: []float64{1, 2}, Alpha: 0.03},
	}
	p, err := New(Config{Epsilon: 0.001}, obs)
	if err != nil {
		t.Fatal(err)
	}
	// α̂ for features [1,0] ≈ 0.01 ⇒ n̂ = 3/0.01 = 300.
	n := p.BatchSize("m", []float64{1, 0}, 3.0)
	if n < 250 || n > 350 {
		t.Fatalf("batch size %d, want ~300", n)
	}
}

func TestBatchSizeClamps(t *testing.T) {
	obs := []Observation{
		{Features: []float64{1}, Alpha: 0.01},
		{Features: []float64{2}, Alpha: 0.02},
	}
	p, err := New(Config{Epsilon: 0.001}, obs)
	if err != nil {
		t.Fatal(err)
	}
	// Equation 1's max(1, ·): a task is at least one sample.
	if n := p.BatchSize("m", []float64{1}, 1e-9); n != 1 {
		t.Errorf("min clamp gave %d, want 1", n)
	}
	if n := p.BatchSize("m", []float64{1}, 100); n < 9000 || n > 11000 {
		t.Errorf("SLO 100 at α 0.01 gave %d, want ~10000 (no upper clamp)", n)
	}
}

func TestPersonalizationImprovesPrediction(t *testing.T) {
	p := newTimeProfiler(t)
	m, _ := device.ModelByName("Xperia E3") // unseen, much weaker than training set
	d := device.New(m, simrand.New(3))

	// The device's noise-free seconds per sample at its current temperature.
	alphaNow := func() float64 {
		return m.AlphaTime * (1 + m.ThermalCoeff*math.Max(0, d.TempC()-device.AmbientTempC))
	}
	coldErr := math.Abs(p.PredictAlpha(m.Name, d.Features()) - alphaNow())

	// Feed real observations (as requests would). Noise means single
	// observations wobble; feed enough for the PA model to settle.
	for i := 0; i < 40; i++ {
		res := d.Execute(200)
		p.Observe(Observation{
			DeviceModel: m.Name,
			Features:    d.Features(),
			Alpha:       res.LatencySec / 200,
		})
		d.Idle(120)
	}
	persErr := math.Abs(p.PredictAlpha(m.Name, d.Features()) - alphaNow())
	if persErr >= coldErr {
		t.Fatalf("personalized error %v should beat cold-start error %v", persErr, coldErr)
	}
	if p.personal[m.Name] == nil {
		t.Fatal("personalized model not registered")
	}
}

func TestPredictAlphaFloorsAtPositive(t *testing.T) {
	obs := []Observation{
		{Features: []float64{1}, Alpha: 0.0001},
		{Features: []float64{2}, Alpha: 0.0002},
	}
	p, err := New(Config{Epsilon: 0.001}, obs)
	if err != nil {
		t.Fatal(err)
	}
	// Features that would extrapolate to a negative slope.
	if alpha := p.PredictAlpha("m", []float64{-100}); alpha <= 0 {
		t.Fatalf("α must stay positive, got %v", alpha)
	}
}

func TestCollectStopsAtTwiceSLO(t *testing.T) {
	rng := simrand.New(4)
	m, _ := device.ModelByName("Galaxy S7")
	data := Collect(rng, []device.Model{m}, KindTime, 3.0)
	if len(data.Observations) == 0 {
		t.Fatal("no observations collected")
	}
	last := data.Costs[len(data.Costs)-1]
	if last < 2*3.0*0.8 {
		t.Fatalf("sweep stopped at cost %v, want ≈ 2×SLO", last)
	}
	if data.BatchSizes[0] != 1 {
		t.Fatalf("sweep must start at batch size 1, got %d", data.BatchSizes[0])
	}
}

func TestCollectEnergyKind(t *testing.T) {
	rng := simrand.New(5)
	m, _ := device.ModelByName("Galaxy S7")
	data := Collect(rng, []device.Model{m}, KindEnergy, 0.075)
	if len(data.Observations) == 0 {
		t.Fatal("no energy observations")
	}
	for _, o := range data.Observations {
		if len(o.Features) != 5 {
			t.Fatalf("energy features len %d, want 5", len(o.Features))
		}
		if o.Alpha <= 0 {
			t.Fatalf("non-positive energy slope %v", o.Alpha)
		}
	}
}

func TestMAUIFitsGlobalSlope(t *testing.T) {
	m, err := NewMAUI([]int{100, 200, 300}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.theta(); math.Abs(got-0.01) > 1e-9 {
		t.Fatalf("θ₀ = %v, want 0.01", got)
	}
	if n := m.BatchSize(3); n != 300 {
		t.Fatalf("batch = %d, want 300", n)
	}
}

func TestMAUIObserveShiftsSlope(t *testing.T) {
	m, err := NewMAUI([]int{100}, []float64{1}) // θ₀ = 0.01
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		m.Observe(100, 4) // slope 0.04 device dominates
	}
	if got := m.theta(); got < 0.03 {
		t.Fatalf("θ₀ = %v, want shifted toward 0.04", got)
	}
}

func TestMAUIErrors(t *testing.T) {
	if _, err := NewMAUI(nil, nil); err == nil {
		t.Error("want error on empty training")
	}
	if _, err := NewMAUI([]int{1}, []float64{1, 2}); err == nil {
		t.Error("want error on length mismatch")
	}
	if _, err := NewMAUI([]int{0}, []float64{0}); err == nil {
		t.Error("want error on degenerate data")
	}
}

func TestMAUIBatchSizeFloor(t *testing.T) {
	m, err := NewMAUI([]int{10}, []float64{100}) // θ₀ = 10: very slow
	if err != nil {
		t.Fatal(err)
	}
	if n := m.BatchSize(0.001); n != 1 {
		t.Fatalf("batch = %d, want floor of 1", n)
	}
}

func TestSLODeviation(t *testing.T) {
	if got := SLODeviation(3.75, 3.0); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("deviation = %v, want 0.75", got)
	}
	if got := SLODeviation(2.0, 3.0); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("deviation = %v, want 1.0", got)
	}
}

func TestKindString(t *testing.T) {
	if KindTime.String() != "time" || KindEnergy.String() != "energy" {
		t.Fatal("kind names")
	}
	if Kind(99).String() != "unknown" {
		t.Fatal("unknown kind")
	}
}

func TestCollectWithConfigurableSweep(t *testing.T) {
	models := device.Catalogue()[:2]
	// A sweep stops at twice the SLO: a 0.75 s SLO stops at 1.5 s, a 6 s one at 12 s.
	short := CollectWith(simrand.New(1), models, KindTime, 0.75, CollectConfig{MaxBatch: 4})
	long := CollectWith(simrand.New(1), models, KindTime, 6, CollectConfig{MaxBatch: 1 << 16})
	if len(short.Observations) == 0 || len(long.Observations) <= len(short.Observations) {
		t.Fatalf("sweep bounds ignored: short=%d long=%d", len(short.Observations), len(long.Observations))
	}
	for _, n := range short.BatchSizes {
		if n > 4 {
			t.Fatalf("MaxBatch exceeded: %d", n)
		}
	}
	// Tier-scaled models profile as distinct, proportionally slower devices.
	straggler := []device.Model{models[0].Scaled(8)}
	d := CollectWith(simrand.New(2), straggler, KindTime, 3, CollectConfig{MaxBatch: 8})
	if d.Observations[0].DeviceModel == models[0].Name {
		t.Fatal("scaled tier kept the base model name")
	}
}

// TestObservationWindowCompaction proves the retraining observation set is
// a bounded sliding window: once maxObservations points are held, each new
// observation overwrites the oldest in place, and the ring cursor survives a
// checkpoint round-trip.
func TestObservationWindowCompaction(t *testing.T) {
	pretrain := []Observation{
		{DeviceModel: "seed", Features: []float64{1, 1}, Alpha: 0.010},
		{DeviceModel: "seed", Features: []float64{1, 2}, Alpha: 0.020},
		{DeviceModel: "seed", Features: []float64{1, 3}, Alpha: 0.030},
	}
	alpha := func(i int) float64 { return 0.01 + float64(i)*1e-6 }
	const live = maxObservations + 40

	p, err := New(Config{Epsilon: 0.1, RetrainEvery: 5}, pretrain)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < live; i++ {
		p.Observe(Observation{DeviceModel: "live", Features: []float64{1, float64(10 + i)}, Alpha: alpha(i)})
	}
	st := p.ExportState()
	if len(st.ObsX) != maxObservations || len(st.ObsY) != maxObservations {
		t.Fatalf("window grew to %d/%d observations, want %d after compaction", len(st.ObsX), len(st.ObsY), maxObservations)
	}
	if st.ObsNext < 0 || st.ObsNext >= maxObservations {
		t.Fatalf("ring cursor %d out of range [0,%d)", st.ObsNext, maxObservations)
	}
	// Only the newest maxObservations observations survive; pretraining
	// points and early live observations must all have been displaced.
	newest := map[float64]bool{}
	for i := live - maxObservations; i < live; i++ {
		newest[alpha(i)] = true
	}
	for k, y := range st.ObsY {
		if !newest[y] {
			t.Fatalf("window slot %d holds stale alpha %v; want one of the %d newest", k, y, maxObservations)
		}
	}

	// The cursor must round-trip through a checkpoint: the next observation
	// after a restore overwrites exactly the slot the ring had reached.
	q, err := New(Config{Epsilon: 0.1, RetrainEvery: 5}, pretrain)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	q.Observe(Observation{DeviceModel: "live", Features: []float64{1, 99}, Alpha: 0.5})
	st2 := q.ExportState()
	if len(st2.ObsX) != maxObservations {
		t.Fatalf("restored window grew to %d observations", len(st2.ObsX))
	}
	if st2.ObsY[st.ObsNext] != 0.5 {
		t.Errorf("post-restore observation landed at alpha %v in slot %d; want 0.5 (oldest slot overwritten)",
			st2.ObsY[st.ObsNext], st.ObsNext)
	}
	if want := (st.ObsNext + 1) % maxObservations; st2.ObsNext != want {
		t.Errorf("ring cursor after restore+observe = %d, want %d", st2.ObsNext, want)
	}
}
