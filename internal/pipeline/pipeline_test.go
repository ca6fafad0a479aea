package pipeline

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"fleet/internal/dp"
	"fleet/internal/learning"
	"fleet/internal/protocol"
	"fleet/internal/robust"
)

func mustNew(t testing.TB, agg WindowAggregator, stages ...Stage) *Pipeline {
	t.Helper()
	p, err := New(agg, stages...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustBuild(t testing.TB, stagesSpec, aggSpec string, opts BuildOptions) *Pipeline {
	t.Helper()
	p, err := Build(stagesSpec, aggSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStalenessScaleStage(t *testing.T) {
	st, err := NewStalenessScale(learning.DynSGD{})
	if err != nil {
		t.Fatal(err)
	}
	g := &Gradient{Vec: []float64{1, 2}, Meta: learning.GradientMeta{Staleness: 3}, Scale: 1}
	if err := st.Process(g); err != nil {
		t.Fatal(err)
	}
	if want := learning.InverseDampening(3); g.Scale != want {
		t.Fatalf("scale %v, want %v", g.Scale, want)
	}
	// The stage scales, it never touches the vector.
	if g.Vec[0] != 1 || g.Vec[1] != 2 {
		t.Fatalf("vector mutated: %v", g.Vec)
	}
	if _, err := NewStalenessScale(nil); err == nil {
		t.Fatal("nil algorithm accepted")
	}
}

func TestNormFilterStage(t *testing.T) {
	f, err := NewNormFilter(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Process(&Gradient{Vec: []float64{3, 4}, Scale: 1}); err != nil {
		t.Fatalf("norm 5 must pass the filter at 5: %v", err)
	}
	if err := f.Process(&Gradient{Vec: []float64{30, 40}, Scale: 1}); err == nil {
		t.Fatal("norm 50 must be rejected")
	}
	if _, err := NewNormFilter(0); err == nil {
		t.Fatal("non-positive bound accepted")
	}
}

func TestDPStageClipsAndIsSeeded(t *testing.T) {
	mk := func() *DP {
		d, err := NewDP(dp.Config{ClipNorm: 1, NoiseMultiplier: 0.5}, 7)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	g1 := &Gradient{Vec: []float64{3, 4}, Meta: learning.GradientMeta{BatchSize: 10}, Scale: 1}
	g2 := &Gradient{Vec: []float64{3, 4}, Meta: learning.GradientMeta{BatchSize: 10}, Scale: 1}
	if err := mk().Process(g1); err != nil {
		t.Fatal(err)
	}
	if err := mk().Process(g2); err != nil {
		t.Fatal(err)
	}
	// Same seed, same input → same perturbed output.
	if g1.Vec[0] != g2.Vec[0] || g1.Vec[1] != g2.Vec[1] {
		t.Fatalf("same-seed DP diverged: %v vs %v", g1.Vec, g2.Vec)
	}
	// Clipping to norm 1 plus modest noise keeps the vector small.
	if norm := math.Hypot(g1.Vec[0], g1.Vec[1]); norm > 2 {
		t.Fatalf("clipped+noised norm %v, want ≲ 1", norm)
	}
}

// TestDPStageReplaysAcrossGC: a serialized push sequence draws the same
// noise whatever the collector does between pushes — each push's generator
// comes from (seed, ordinal), not from a pool the GC may empty. (The pooled
// stage forked its stream here: a collected pool member was replaced by a
// freshly seeded one.) Distinct ordinals must also draw distinct noise.
func TestDPStageReplaysAcrossGC(t *testing.T) {
	run := func(gc bool) [][]float64 {
		d, err := NewDP(dp.Config{ClipNorm: 1, NoiseMultiplier: 0.5}, 42)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]float64
		for i := 0; i < 12; i++ {
			if gc {
				runtime.GC()
				runtime.GC() // sync.Pool victims survive one cycle
			}
			g := &Gradient{Vec: []float64{3, 4, 0, -1}, Meta: learning.GradientMeta{BatchSize: 10}, Scale: 1}
			if err := d.Process(g); err != nil {
				t.Fatal(err)
			}
			out = append(out, g.Vec)
		}
		return out
	}
	plain, collected := run(false), run(true)
	if !reflect.DeepEqual(plain, collected) {
		t.Fatalf("noise stream forked across GC cycles:\n%v\n%v", plain, collected)
	}
	if reflect.DeepEqual(plain[0], plain[1]) {
		t.Fatalf("pushes 0 and 1 drew identical noise: %v", plain[0])
	}
}

// TestDPStageConcurrentPushes proves concurrent Process calls are safe: each
// push draws from a generator of its own (run with -race).
func TestDPStageConcurrentPushes(t *testing.T) {
	d, err := NewDP(dp.Config{ClipNorm: 1, NoiseMultiplier: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				g := &Gradient{Vec: []float64{1, 2, 3}, Meta: learning.GradientMeta{BatchSize: 5}, Scale: 1}
				if err := d.Process(g); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestPipelineProcessRejectsViaFilter(t *testing.T) {
	f, _ := NewNormFilter(1)
	p := mustNew(t, NewMeanWindow(), f)
	err := p.Process(&Gradient{Vec: []float64{10, 10}, Scale: 1})
	var apiErr *protocol.Error
	if !errors.As(err, &apiErr) || apiErr.Code != protocol.CodeInvalidArgument {
		t.Fatalf("want structured invalid_argument, got %v", err)
	}
	if !strings.Contains(apiErr.Message, "norm-filter") {
		t.Fatalf("error should name the rejecting stage: %v", apiErr)
	}
}

func TestPipelineEmptyGradientRejected(t *testing.T) {
	p := mustNew(t, NewMeanWindow())
	var apiErr *protocol.Error
	if err := p.Process(&Gradient{}); !errors.As(err, &apiErr) || apiErr.Code != protocol.CodeInvalidArgument {
		t.Fatalf("want invalid_argument for empty gradient, got %v", err)
	}
}

func TestMeanWindowSumsScaledGradients(t *testing.T) {
	m := NewMeanWindow()
	m.Add([]float64{1, 2}, 0.5)
	m.Add([]float64{10, 20}, 1)
	var got []float64
	calls := 0
	if err := m.Drain(func(dir []float64) {
		got = append([]float64(nil), dir...)
		calls++
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || got[0] != 10.5 || got[1] != 21 {
		t.Fatalf("%d applies, drained %v, want one with [10.5 21]", calls, got)
	}
	// A drained window must be clean for the next one.
	if err := m.Drain(func([]float64) { t.Fatal("drain of an empty window applied mass") }); err != nil {
		t.Fatal(err)
	}
}

// TestMeanWindowReportsTouched: a window of sparse Adds drains with the
// ascending union of their coordinates and is zeroed there; one dense Add
// makes the window opaque (nil) for that drain only; the plain Drain sees
// the same directions either way.
func TestMeanWindowReportsTouched(t *testing.T) {
	const P = 200
	m := NewMeanWindow()
	drain := func() (dir []float64, touched []int32, calls int) {
		err := m.DrainTouched(func(d []float64, at []int32) {
			dir, touched = append([]float64(nil), d...), nil
			if at != nil {
				touched = append([]int32{}, at...)
			}
			calls++
		})
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	m.AddSparse(P, []int32{3, 64, 199}, []float64{1, 2, 3}, 2)
	m.AddSparse(P, []int32{0, 64, 130}, []float64{5, 5, 5}, 1)
	dir, touched, calls := drain()
	if want := []int32{0, 3, 64, 130, 199}; calls != 1 || !reflect.DeepEqual(touched, want) {
		t.Fatalf("sparse window: %d applies, touched %v, want one with %v", calls, touched, want)
	}
	if dir[0] != 5 || dir[3] != 2 || dir[64] != 9 || dir[130] != 5 || dir[199] != 6 {
		t.Fatalf("sparse window direction wrong at the touched coordinates: %v", dir)
	}

	// The drained window left nothing behind: the next one reports only its own.
	m.AddSparse(P, []int32{7}, []float64{1}, 1)
	if dir, touched, _ = drain(); !reflect.DeepEqual(touched, []int32{7}) || dir[64] != 0 || dir[7] != 1 {
		t.Fatalf("second window: touched %v, dir[64]=%v dir[7]=%v", touched, dir[64], dir[7])
	}

	// A dense Add anywhere in the window hides the list — before or after
	// the sparse ones — and the window after it is sparse again.
	dense := make([]float64, P)
	dense[150] = 4
	m.AddSparse(P, []int32{9}, []float64{1}, 1)
	m.Add(dense, 1)
	m.AddSparse(P, []int32{11}, []float64{1}, 1)
	if dir, touched, calls = drain(); calls != 1 || touched != nil || dir[9] != 1 || dir[11] != 1 || dir[150] != 4 {
		t.Fatalf("mixed window: %d applies, touched %v, dir[9,11,150]=%v,%v,%v", calls, touched, dir[9], dir[11], dir[150])
	}
	m.AddSparse(P, []int32{12}, []float64{1}, 1)
	if dir, touched, _ = drain(); !reflect.DeepEqual(touched, []int32{12}) || dir[9] != 0 || dir[150] != 0 {
		t.Fatalf("window after a dense one: touched %v, stale mass dir[9]=%v dir[150]=%v", touched, dir[9], dir[150])
	}

	// The plain Drain is the same walk without the lists.
	m.AddSparse(P, []int32{1, 2}, []float64{1, 1}, 3)
	var plain []float64
	if err := m.Drain(func(d []float64) { plain = append([]float64(nil), d...) }); err != nil {
		t.Fatal(err)
	}
	if plain[1] != 3 || plain[2] != 3 {
		t.Fatalf("plain drain direction %v", plain[:4])
	}
	if _, _, calls = drain(); calls != 0 {
		t.Fatal("plain Drain left the window dirty")
	}

	// A dirty window no sparse Add wrote a coordinate into is still sparse:
	// an empty list, not the nil that means "anything may be set".
	m.AddSparse(P, nil, nil, 1)
	if _, touched, calls = drain(); calls != 1 || touched == nil || len(touched) != 0 {
		t.Fatalf("empty sparse window: %d applies, touched %v (nil: %v)", calls, touched, touched == nil)
	}
	fresh := NewMeanWindow()
	fresh.AddSparse(P, nil, nil, 1)
	if err := fresh.DrainTouched(func(_ []float64, at []int32) {
		if at == nil {
			t.Fatal("first drain of an empty sparse window reported nil")
		}
	}); err != nil {
		t.Fatal(err)
	}

}

// buffered is how many gradients w retains.
func buffered(w *RetainedWindow) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.window)
}

func TestRetainedWindowAggregates(t *testing.T) {
	w, err := NewRetained(robust.CoordinateMedian{})
	if err != nil {
		t.Fatal(err)
	}
	// Median of scaled gradients {2}, {4}, {1000}: the outlier is ignored,
	// and the direction carries the K-sum magnitude (median 4 × window 3).
	w.Add([]float64{1}, 2)
	w.Add([]float64{2}, 2)
	w.Add([]float64{1000}, 1)
	if buffered(w) != 3 {
		t.Fatalf("buffered %d, want 3", buffered(w))
	}
	var got []float64
	if err := w.Drain(func(dir []float64) { got = dir }); err != nil {
		t.Fatal(err)
	}
	if got[0] != 12 {
		t.Fatalf("median direction %v, want [12] (median 4 × window size 3)", got)
	}
	if buffered(w) != 0 {
		t.Fatalf("window not reset after drain: %d buffered", buffered(w))
	}
	// An empty window drains as a no-op, not an error.
	if err := w.Drain(func([]float64) { t.Fatal("empty window applied") }); err != nil {
		t.Fatal(err)
	}
}

func TestRetainedWindowRaggedRejected(t *testing.T) {
	w, _ := NewRetained(robust.Krum{F: 1})
	w.Add([]float64{1, 2}, 1)
	w.Add([]float64{1}, 1)
	p := mustNew(t, w)
	err := p.Drain(func([]float64) { t.Fatal("ragged window applied") })
	var apiErr *protocol.Error
	if !errors.As(err, &apiErr) || apiErr.Code != protocol.CodeInvalidArgument {
		t.Fatalf("want structured invalid_argument for ragged window, got %v", err)
	}
	// The poisoned window is discarded, not retried forever.
	if err := p.Drain(func([]float64) { t.Fatal("discarded window applied") }); err != nil {
		t.Fatal(err)
	}
}

// TestRetainedWindowMeanEqualsMeanWindow proves the K-sum normalization:
// for the linear robust.Mean rule, a retained window drains exactly the
// sum a MeanWindow accumulates, so aggregators are drop-in interchangeable
// at a fixed learning rate.
func TestRetainedWindowMeanEqualsMeanWindow(t *testing.T) {
	retained, _ := NewRetained(robust.Mean{})
	mean := NewMeanWindow()
	for i := 1; i <= 4; i++ {
		// Seven coordinates: Add's four-wide blocks and its tail.
		vec := []float64{float64(i), float64(-i), 2, float64(3 * i), -0.5, float64(i * i), float64(7 - i)}
		retained.Add(vec, 0.5)
		mean.Add(vec, 0.5)
	}
	sum := func(w WindowAggregator) []float64 {
		out := make([]float64, 7)
		if err := w.Drain(func(dir []float64) {
			for i, v := range dir {
				out[i] += v
			}
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if r, s := sum(retained), sum(mean); !reflect.DeepEqual(r, s) {
		t.Fatalf("retained mean %v != mean window %v", r, s)
	}
}

// TestRetainedWindowConcurrentHammer races Adds against Drains (run with
// -race): total applied mass must equal total added mass for a linear rule.
func TestRetainedWindowConcurrentHammer(t *testing.T) {
	w, _ := NewRetained(robust.Mean{})
	const workers, adds = 8, 100
	var wg sync.WaitGroup
	var drainMu sync.Mutex
	windows := 0
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				w.Add([]float64{1, 2, 3}, 1)
				if i%10 == 9 {
					drainMu.Lock()
					if err := w.Drain(func(dir []float64) { windows++ }); err != nil {
						t.Error(err)
					}
					drainMu.Unlock()
				}
				_ = buffered(w)
			}
		}()
	}
	wg.Wait()
	drainMu.Lock()
	defer drainMu.Unlock()
	if err := w.Drain(func([]float64) { windows++ }); err != nil {
		t.Fatal(err)
	}
	if windows == 0 {
		t.Fatal("no windows drained")
	}
	if buffered(w) != 0 {
		t.Fatalf("%d gradients stranded", buffered(w))
	}
}

func TestRegistryBuild(t *testing.T) {
	opts := BuildOptions{Algorithm: learning.DynSGD{}, Seed: 3}
	p := mustBuild(t, "staleness,dp(1,0.5),norm-filter(100)", "krum(1)", opts)
	if got := p.String(); got != "staleness(DynSGD) | dp(clip=1,sigma=0.5) | norm-filter(100) -> Krum(f=1)" {
		t.Fatalf("pipeline string = %q", got)
	}
	if names := p.StageNames(); len(names) != 3 {
		t.Fatalf("stage names = %v", names)
	}

	// Empty stage spec composes a bare aggregator.
	p = mustBuild(t, "", "mean", opts)
	if p.AggregatorName() != "mean" {
		t.Fatalf("aggregator = %q", p.AggregatorName())
	}

	for _, bad := range []struct{ stages, agg string }{
		{"nope", "mean"},
		{"staleness", "nope"},
		{"staleness(", "mean"},
		{"dp(1)", "mean"},
		{"dp(0,1)", "mean"},
		{"dp(1,-1)", "mean"},
		{"norm-filter(oops)", "mean"},
		{"staleness", "krum(1,2)"},
		{"staleness", "krum(0.9)"},
		{"staleness", "trimmed(1.9)"},
	} {
		if _, err := Build(bad.stages, bad.agg, opts); err == nil {
			t.Errorf("Build(%q, %q) accepted", bad.stages, bad.agg)
		}
	}

	// The mean is one accumulator: it takes no arguments, like the median.
	for _, agg := range []string{"mean(4)", "median(1)"} {
		_, err := Build("staleness", agg, opts)
		if err == nil || !strings.Contains(err.Error(), "takes no arguments") {
			t.Errorf("Build(%q): %v, want a takes-no-arguments error", agg, err)
		}
	}
	if _, err := Build("", "mean(4)", opts); err == nil || !strings.Contains(err.Error(), "[4]") {
		t.Errorf("mean(4): error %v does not name the argument", err)
	}

	// The staleness stage requires an algorithm from the options.
	if _, err := Build("staleness", "mean", BuildOptions{}); err == nil {
		t.Error("staleness stage built without an algorithm")
	}
}

func TestRegistryLists(t *testing.T) {
	for _, w := range []string{"dp", "norm-filter", "staleness"} {
		if stages[w] == nil {
			t.Errorf("stage %q missing from the stage table", w)
		}
	}
	for _, w := range []string{"krum", "mean", "median", "trimmed"} {
		if aggregators[w] == nil {
			t.Errorf("aggregator %q missing from the aggregator table", w)
		}
	}
	_, err := Build("warp", "mean", BuildOptions{})
	if want := `unknown stage "warp" (known: dp, norm-filter, staleness)`; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("unknown stage: error %v, want containing %q", err, want)
	}
}

// TestRegisterCustomStage: a custom stage is composed by value.
func TestRegisterCustomStage(t *testing.T) {
	p, err := New(NewMeanWindow(), negateStage{})
	if err != nil {
		t.Fatal(err)
	}
	g := &Gradient{Vec: []float64{1, -2}, Scale: 1}
	if err := p.Process(g); err != nil {
		t.Fatal(err)
	}
	if g.Vec[0] != -1 || g.Vec[1] != 2 {
		t.Fatalf("custom stage not applied: %v", g.Vec)
	}
}

type negateStage struct{}

func (negateStage) Name() string { return "test-negate" }
func (negateStage) Process(g *Gradient) error {
	for i := range g.Vec {
		g.Vec[i] = -g.Vec[i]
	}
	return nil
}

// BenchmarkPipelineProcess measures the per-gradient stage overhead the
// pipeline adds in front of accumulation.
func BenchmarkPipelineProcess(b *testing.B) {
	const params = 1024
	vec := make([]float64, params)
	for i := range vec {
		vec[i] = 1e-4
	}
	for _, spec := range []string{"staleness", "staleness,norm-filter(1e9)", "staleness,dp(1,0.1)"} {
		b.Run(spec, func(b *testing.B) {
			p := mustBuild(b, spec, "mean", BuildOptions{Algorithm: learning.DynSGD{}, Seed: 1})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := &Gradient{Vec: vec, Meta: learning.GradientMeta{Staleness: 2, BatchSize: 10}, Scale: 1}
				if err := p.Process(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineWindow compares the mean window against the
// window-retention aggregators on the Add+Drain cycle.
func BenchmarkPipelineWindow(b *testing.B) {
	const params, k = 1024, 8
	vec := make([]float64, params)
	for i := range vec {
		vec[i] = 1e-4
	}
	cases := []struct {
		name string
		mk   func() WindowAggregator
	}{
		{"mean", func() WindowAggregator { return NewMeanWindow() }},
		{"median", func() WindowAggregator { w, _ := NewRetained(robust.CoordinateMedian{}); return w }},
		{"krum", func() WindowAggregator { w, _ := NewRetained(robust.Krum{F: 1}); return w }},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("%s/k=%d", c.name, k), func(b *testing.B) {
			agg := c.mk()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := 0; j < k; j++ {
					agg.Add(vec, 0.5)
				}
				if err := agg.Drain(func([]float64) {}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
