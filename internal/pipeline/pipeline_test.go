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

// dense and sparse build the Gradient an Add takes.
func dense(vec []float64, scale float64) *Gradient { return &Gradient{Vec: vec, Scale: scale} }

func sparse(denseLen int, idx []int32, vals []float64, scale float64) *Gradient {
	return &Gradient{Vec: vals, Indices: idx, DenseLen: denseLen, Scale: scale}
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
	m.Add(dense([]float64{1, 2}, 0.5))
	m.Add(dense([]float64{10, 20}, 1))
	var got []float64
	calls := 0
	if err := m.Drain(func(dir []float64, _ []int32) {
		got = append([]float64(nil), dir...)
		calls++
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || got[0] != 10.5 || got[1] != 21 {
		t.Fatalf("%d applies, drained %v, want one with [10.5 21]", calls, got)
	}
	// A drained window must be clean for the next one.
	if err := m.Drain(func([]float64, []int32) { t.Fatal("drain of an empty window applied mass") }); err != nil {
		t.Fatal(err)
	}
}

// TestMeanWindowReportsTouched: a window of sparse Adds drains with the
// ascending union of their coordinates and is zeroed there; one dense Add
// makes the window opaque (nil) for that drain only; the pipeline's plain
// Drain sees the same directions either way.
func TestMeanWindowReportsTouched(t *testing.T) {
	const P = 200
	m := NewMeanWindow()
	drain := func() (dir []float64, touched []int32, calls int) {
		err := m.Drain(func(d []float64, at []int32) {
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
	m.Add(sparse(P, []int32{3, 64, 199}, []float64{1, 2, 3}, 2))
	m.Add(sparse(P, []int32{0, 64, 130}, []float64{5, 5, 5}, 1))
	dir, touched, calls := drain()
	if want := []int32{0, 3, 64, 130, 199}; calls != 1 || !reflect.DeepEqual(touched, want) {
		t.Fatalf("sparse window: %d applies, touched %v, want one with %v", calls, touched, want)
	}
	if dir[0] != 5 || dir[3] != 2 || dir[64] != 9 || dir[130] != 5 || dir[199] != 6 {
		t.Fatalf("sparse window direction wrong at the touched coordinates: %v", dir)
	}

	// The drained window left nothing behind: the next one reports only its own.
	m.Add(sparse(P, []int32{7}, []float64{1}, 1))
	if dir, touched, _ = drain(); !reflect.DeepEqual(touched, []int32{7}) || dir[64] != 0 || dir[7] != 1 {
		t.Fatalf("second window: touched %v, dir[64]=%v dir[7]=%v", touched, dir[64], dir[7])
	}

	// A dense Add anywhere in the window hides the list — before or after
	// the sparse ones — and the window after it is sparse again.
	vec := make([]float64, P)
	vec[150] = 4
	m.Add(sparse(P, []int32{9}, []float64{1}, 1))
	m.Add(dense(vec, 1))
	m.Add(sparse(P, []int32{11}, []float64{1}, 1))
	if dir, touched, calls = drain(); calls != 1 || touched != nil || dir[9] != 1 || dir[11] != 1 || dir[150] != 4 {
		t.Fatalf("mixed window: %d applies, touched %v, dir[9,11,150]=%v,%v,%v", calls, touched, dir[9], dir[11], dir[150])
	}
	m.Add(sparse(P, []int32{12}, []float64{1}, 1))
	if dir, touched, _ = drain(); !reflect.DeepEqual(touched, []int32{12}) || dir[9] != 0 || dir[150] != 0 {
		t.Fatalf("window after a dense one: touched %v, stale mass dir[9]=%v dir[150]=%v", touched, dir[9], dir[150])
	}

	// The pipeline's plain Drain is the same walk without the lists.
	m.Add(sparse(P, []int32{1, 2}, []float64{1, 1}, 3))
	var plain []float64
	if err := mustNew(t, m).Drain(func(d []float64) { plain = append([]float64(nil), d...) }); err != nil {
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
	m.Add(sparse(P, []int32{}, nil, 1))
	if _, touched, calls = drain(); calls != 1 || touched == nil || len(touched) != 0 {
		t.Fatalf("empty sparse window: %d applies, touched %v (nil: %v)", calls, touched, touched == nil)
	}
	fresh := NewMeanWindow()
	fresh.Add(sparse(P, []int32{}, nil, 1))
	if err := fresh.Drain(func(_ []float64, at []int32) {
		if at == nil {
			t.Fatal("first drain of an empty sparse window reported nil")
		}
	}); err != nil {
		t.Fatal(err)
	}

}

// sparseCase is a sparse gradient with its densified twin: negative values,
// a −0, and most coordinates left out, so a negative scale turns the
// omitted zeros of the dense form into −0.
func sparseCase(i int) (idx []int32, vals, vec []float64) {
	const P = 11
	idx = []int32{int32(i % 3), 4, int32(6 + i%4), 10}
	vals = []float64{float64(i) - 1.5, math.Copysign(0, -1), 0.25 * float64(i+1), -3}
	vec = make([]float64, P)
	for j, c := range idx {
		vec[c] = vals[j]
	}
	return idx, vals, vec
}

// TestSparseAddMatchesDense: for every aggregator, a window of sparse Adds
// drains to the bits a window of their densified twins drains to, at
// scales 2, 0 and −1, and no Add writes the arrays it was handed.
func TestSparseAddMatchesDense(t *testing.T) {
	opts := BuildOptions{Algorithm: learning.SSGD{}, Seed: 1}
	for _, agg := range []string{"mean", "median", "trimmed(1)", "krum(1)"} {
		sp, dn := mustBuild(t, "", agg, opts), mustBuild(t, "", agg, opts)
		for _, scale := range []float64{2, 0, -1} {
			for i := 0; i < 5; i++ {
				idx, vals, vec := sparseCase(i)
				keepIdx, keepVals := append([]int32(nil), idx...), append([]float64(nil), vals...)
				sp.Add(sparse(len(vec), idx, vals, scale))
				dn.Add(dense(vec, scale))
				if !reflect.DeepEqual(idx, keepIdx) || !bitsEqual(vals, keepVals) {
					t.Fatalf("%s: Add wrote the pusher's arrays: %v %v", agg, idx, vals)
				}
			}
			got, want := drained(t, sp), drained(t, dn)
			if !bitsEqual(got, want) {
				t.Errorf("%s at scale %v: sparse window drained %v, dense %v", agg, scale, got, want)
			}
		}
	}
}

// TestDPStageDensifiesSparse: dp noises every coordinate of a sparse
// gradient, exactly as of its densified twin, in storage of its own.
func TestDPStageDensifiesSparse(t *testing.T) {
	mk := func() *Pipeline { return mustBuild(t, "dp(1,1.2)", "mean", BuildOptions{Seed: 9}) }
	idx, vals, vec := sparseCase(2)
	keep := append([]float64(nil), vals...)
	sg, dg := sparse(len(vec), idx, vals, 1), dense(vec, 1)
	if err := mk().Process(sg); err != nil {
		t.Fatal(err)
	}
	if err := mk().Process(dg); err != nil {
		t.Fatal(err)
	}
	if sg.Indices != nil || !bitsEqual(sg.Vec, dg.Vec) {
		t.Fatalf("sparse gradient noised to %v (indices %v), its dense twin to %v", sg.Vec, sg.Indices, dg.Vec)
	}
	if !bitsEqual(vals, keep) {
		t.Fatalf("dp wrote the pusher's values: %v", vals)
	}
}

// TestNormFilterSparseEqualsDense: the norm of the kept values is the dense
// norm, so one bound admits and rejects the two forms alike.
func TestNormFilterSparseEqualsDense(t *testing.T) {
	idx, vals, vec := sparseCase(3) // norm sqrt(1.5² + 1² + 3²) = 3.5
	for _, max := range []float64{3.5, math.Nextafter(3.5, 0)} {
		f, _ := NewNormFilter(max)
		se, de := f.Process(sparse(len(vec), idx, vals, 1)), f.Process(dense(vec, 1))
		if (se == nil) != (de == nil) {
			t.Fatalf("bound %v: sparse %v, dense %v", max, se, de)
		}
	}
}

// drained is the direction p's next drain applies (nil if none).
func drained(t *testing.T, p *Pipeline) []float64 {
	t.Helper()
	var dir []float64
	if err := p.Drain(func(d []float64) { dir = append([]float64(nil), d...) }); err != nil {
		t.Fatal(err)
	}
	return dir
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
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
	w.Add(dense([]float64{1}, 2))
	w.Add(dense([]float64{2}, 2))
	w.Add(dense([]float64{1000}, 1))
	if buffered(w) != 3 {
		t.Fatalf("buffered %d, want 3", buffered(w))
	}
	var got []float64
	if err := w.Drain(func(dir []float64, _ []int32) { got = dir }); err != nil {
		t.Fatal(err)
	}
	if got[0] != 12 {
		t.Fatalf("median direction %v, want [12] (median 4 × window size 3)", got)
	}
	if buffered(w) != 0 {
		t.Fatalf("window not reset after drain: %d buffered", buffered(w))
	}
	// An empty window drains as a no-op, not an error.
	if err := w.Drain(func([]float64, []int32) { t.Fatal("empty window applied") }); err != nil {
		t.Fatal(err)
	}
}

func TestRetainedWindowRaggedRejected(t *testing.T) {
	w, _ := NewRetained(robust.Krum{F: 1})
	w.Add(dense([]float64{1, 2}, 1))
	w.Add(dense([]float64{1}, 1))
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
		retained.Add(dense(vec, 0.5))
		mean.Add(dense(vec, 0.5))
	}
	sum := func(w WindowAggregator) []float64 {
		out := make([]float64, 7)
		if err := w.Drain(func(dir []float64, _ []int32) {
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
				w.Add(dense([]float64{1, 2, 3}, 1))
				if i%10 == 9 {
					drainMu.Lock()
					if err := w.Drain(func([]float64, []int32) { windows++ }); err != nil {
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
	if err := w.Drain(func([]float64, []int32) { windows++ }); err != nil {
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
// window-retention aggregators on the Add+Drain cycle. Every Add reuses one
// Gradient, so the mean window's cycle allocates nothing.
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
			g := dense(vec, 0.5)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := 0; j < k; j++ {
					agg.Add(g)
				}
				if err := agg.Drain(func([]float64, []int32) {}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
