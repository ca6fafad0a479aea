package device

import (
	"math"
	"testing"

	"fleet/internal/simrand"
)

func TestCatalogueLookup(t *testing.T) {
	m, err := ModelByName("Galaxy S7")
	if err != nil {
		t.Fatal(err)
	}
	if m.AlphaTime <= 0 || m.AlphaEnergy <= 0 {
		t.Fatal("Galaxy S7 slopes must be positive")
	}
	if _, err := ModelByName("iPhone 27"); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestCatalogueUniqueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Catalogue() {
		if seen[m.Name] {
			t.Fatalf("duplicate model %q", m.Name)
		}
		seen[m.Name] = true
		if m.BigCores == 0 && m.LittleCores == 0 {
			t.Fatalf("%s has no cores", m.Name)
		}
		if m.BatteryMWh <= 0 {
			t.Fatalf("%s has no battery", m.Name)
		}
	}
	if len(seen) < 20 {
		t.Fatalf("catalogue has %d models, want >= 20 (paper uses 40 devices over ~26 models)", len(seen))
	}
}

func TestLatencyLinearInBatchSize(t *testing.T) {
	// Figure 4: computation time grows linearly with n. With noise averaged
	// out, latency(2n)/latency(n) ≈ 2.
	m, _ := ModelByName("Galaxy S7")
	meanLatency := func(n int) float64 {
		total := 0.0
		const reps = 300
		for i := 0; i < reps; i++ {
			d := New(m, simrand.New(int64(i)))
			total += d.Execute(n).LatencySec
		}
		return total / reps
	}
	l1, l2 := meanLatency(500), meanLatency(1000)
	ratio := l2 / l1
	if math.Abs(ratio-2) > 0.1 {
		t.Fatalf("latency ratio %v, want ~2 (linearity)", ratio)
	}
}

func TestDeviceHeterogeneity(t *testing.T) {
	// A weak device (Xperia E3) must be several times slower than a strong
	// one (Honor 10), mirroring Figure 4.
	weak, _ := ModelByName("Xperia E3")
	strong, _ := ModelByName("Honor 10")
	dw := New(weak, simrand.New(1))
	ds := New(strong, simrand.New(2))
	lw := dw.Execute(800).LatencySec
	ls := ds.Execute(800).LatencySec
	if lw < 3*ls {
		t.Fatalf("Xperia E3 (%vs) should be >=3x slower than Honor 10 (%vs)", lw, ls)
	}
}

func TestThermalThrottlingRaisesSlope(t *testing.T) {
	m, _ := ModelByName("Honor 10")
	d := New(m, simrand.New(3))
	coolAlpha := d.effectiveAlpha(d.Model.AlphaTime)
	// Heat the device with successive large tasks ("up" phase of Fig. 4).
	for i := 0; i < 30; i++ {
		d.Execute(2000)
	}
	hotAlpha := d.effectiveAlpha(d.Model.AlphaTime)
	if hotAlpha <= coolAlpha {
		t.Fatalf("hot slope %v must exceed cool slope %v", hotAlpha, coolAlpha)
	}
	// Cooling down restores the slope.
	d.Idle(10000)
	if got := d.effectiveAlpha(d.Model.AlphaTime); math.Abs(got-coolAlpha) > 1e-12 {
		t.Fatalf("after cooling slope = %v, want %v", got, coolAlpha)
	}
}

func TestTemperatureBounds(t *testing.T) {
	m, _ := ModelByName("Galaxy S7")
	d := New(m, simrand.New(4))
	for i := 0; i < 200; i++ {
		d.Execute(3000)
	}
	if d.TempC() > 60 {
		t.Fatalf("temperature %v exceeded cap", d.TempC())
	}
	d.Idle(1e6)
	if d.TempC() != AmbientTempC {
		t.Fatalf("idle forever should reach ambient, got %v", d.TempC())
	}
}

func TestFeatureVectorShape(t *testing.T) {
	m, _ := ModelByName("Pixel")
	d := New(m, simrand.New(5))
	f := d.Features()
	if len(f) != 5 {
		t.Fatalf("Features len %d, want 5", len(f))
	}
	if f[0] != 1 {
		t.Fatal("first feature must be the intercept 1")
	}
	ef := d.EnergyFeatures()
	if len(ef) != 5 {
		t.Fatalf("EnergyFeatures len %d, want 5", len(ef))
	}
	for i, v := range ef {
		if v <= 0 {
			t.Fatalf("scaled energy feature %d = %v, want positive", i, v)
		}
	}
}

func TestExecuteMinimumBatch(t *testing.T) {
	m, _ := ModelByName("Nexus 5")
	d := New(m, simrand.New(6))
	r := d.Execute(0) // clamped to 1
	if r.LatencySec <= 0 || r.EnergyPct <= 0 {
		t.Fatal("execution must consume time and energy")
	}
}

func TestDefaultConfigPolicy(t *testing.T) {
	// §2.4: big cores only on big.LITTLE; all cores on symmetric parts.
	s7, _ := ModelByName("Galaxy S7")
	if cfg := s7.DefaultConfig(); cfg.Big != s7.BigCores || cfg.Little != 0 {
		t.Fatalf("big.LITTLE default = %v", cfg)
	}
	e3, _ := ModelByName("Xperia E3")
	if cfg := e3.DefaultConfig(); cfg.Big != 0 || cfg.Little != e3.LittleCores {
		t.Fatalf("symmetric default = %v", cfg)
	}
}

func TestConfigsEnumeration(t *testing.T) {
	m, _ := ModelByName("Galaxy S7") // 4 big, 4 little
	cfgs := m.Configs()
	want := 5*5 - 1
	if len(cfgs) != want {
		t.Fatalf("got %d configs, want %d", len(cfgs), want)
	}
	for _, c := range cfgs {
		if c.Big == 0 && c.Little == 0 {
			t.Fatal("empty config enumerated")
		}
	}
}

func TestBigCoresMoreEnergyEfficient(t *testing.T) {
	// §2.4: for compute-intensive tasks big cores finish faster and are
	// more energy-efficient than LITTLE cores.
	m, _ := ModelByName("Galaxy S7")
	var bigE, littleE float64
	const reps = 200
	for i := 0; i < reps; i++ {
		db := New(m, simrand.New(int64(i)))
		bigE += db.ExecuteWithConfig(1000, CoreConfig{Big: 4}).EnergyPct
		dl := New(m, simrand.New(int64(i)))
		littleE += dl.ExecuteWithConfig(1000, CoreConfig{Little: 4}).EnergyPct
	}
	if bigE >= littleE {
		t.Fatalf("big-core energy %v should be below little-core energy %v", bigE, littleE)
	}
}

func TestExecuteWithDefaultConfigMatchesExecute(t *testing.T) {
	m, _ := ModelByName("Galaxy S8")
	d1 := New(m, simrand.New(7))
	d2 := New(m, simrand.New(7))
	r1 := d1.Execute(500)
	r2 := d2.ExecuteWithConfig(500, m.DefaultConfig())
	if math.Abs(r1.LatencySec-r2.LatencySec) > 1e-9 {
		t.Fatalf("default config latency %v != Execute latency %v", r2.LatencySec, r1.LatencySec)
	}
}

func TestExecuteWithConfigPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m, _ := ModelByName("Galaxy S8")
	New(m, simrand.New(8)).ExecuteWithConfig(10, CoreConfig{})
}

func TestProfileMonotoneSpeedup(t *testing.T) {
	m, _ := ModelByName("Galaxy S7")
	profiles := m.Profile()
	if len(profiles) == 0 {
		t.Fatal("no profiles")
	}
	var maxSpeedup float64
	for _, p := range profiles {
		if p.Speedup <= 0 || p.PowerW <= 0 {
			t.Fatalf("invalid profile %+v", p)
		}
		if p.Speedup > maxSpeedup {
			maxSpeedup = p.Speedup
		}
	}
	// The all-cores configuration is the fastest, above the default.
	if maxSpeedup <= 1 {
		t.Fatalf("max speedup %v, want > 1 (all cores beats big-only)", maxSpeedup)
	}
}

func TestScaledModel(t *testing.T) {
	base := Catalogue()[0]
	slow := base.Scaled(10)
	if slow.AlphaTime != base.AlphaTime*10 || slow.AlphaEnergy != base.AlphaEnergy*10 {
		t.Fatalf("scaled slopes = %v/%v", slow.AlphaTime, slow.AlphaEnergy)
	}
	if slow.Name == base.Name {
		t.Fatal("scaled tier must be a distinct device model name")
	}
	if same := base.Scaled(1); same.Name != base.Name || same.AlphaTime != base.AlphaTime {
		t.Fatal("factor 1 must be the identity")
	}
}
