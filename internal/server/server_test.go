package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fleet/internal/compress"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/pipeline"
	"fleet/internal/protocol"
	"fleet/internal/sched"
	"fleet/internal/simrand"
)

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Arch == 0 {
		cfg.Arch = nn.ArchSoftmaxMNIST
	}
	if cfg.Algorithm == nil {
		cfg.Algorithm = learning.NewAdaSGD(learning.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 5})
	}
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 0.1
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Arch: nn.ArchSoftmaxMNIST, LearningRate: 0.1}); err == nil {
		t.Error("nil algorithm must error")
	}
	if _, err := New(Config{Arch: nn.ArchSoftmaxMNIST, Algorithm: learning.SSGD{}}); err == nil {
		t.Error("zero learning rate must error")
	}
}

func TestTaskServesModel(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, Config{})
	resp, err := s.RequestTask(ctx, &protocol.TaskRequest{WorkerID: 1, LabelCounts: []int{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Accepted {
		t.Fatalf("task rejected: %s", resp.Reason)
	}
	if len(resp.Params) != nn.ArchSoftmaxMNIST.Build(simrand.New(0)).ParamCount() {
		t.Fatalf("served %d params", len(resp.Params))
	}
	if resp.BatchSize != 100 {
		t.Fatalf("default batch size %d, want 100", resp.BatchSize)
	}
	if resp.ModelVersion != 0 {
		t.Fatalf("fresh server version %d", resp.ModelVersion)
	}
}

func TestGradientAdvancesVersion(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, Config{})
	params, v0 := s.Model()
	grad := make([]float64, len(params))
	grad[0] = 1
	ack, err := s.PushGradient(ctx, &protocol.GradientPush{
		ModelVersion: v0, Gradient: grad, BatchSize: 10, LabelCounts: []int{5, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Applied || ack.NewVersion != v0+1 || ack.Staleness != 0 {
		t.Fatalf("ack = %+v", ack)
	}
	after, v1 := s.Model()
	if v1 != v0+1 {
		t.Fatalf("version %d, want %d", v1, v0+1)
	}
	if after[0] >= params[0] {
		t.Fatal("gradient descent must decrease the parameter")
	}
}

func TestStaleGradientDampened(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, Config{Algorithm: learning.DynSGD{}})
	params, _ := s.Model()
	grad := make([]float64, len(params))
	grad[0] = 1
	// Apply several fresh gradients to advance the version.
	for i := 0; i < 4; i++ {
		_, v := s.Model()
		if _, err := s.PushGradient(ctx, &protocol.GradientPush{
			ModelVersion: v, Gradient: grad, BatchSize: 10, LabelCounts: []int{1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Now push a gradient computed on version 0: staleness 4.
	ack, err := s.PushGradient(ctx, &protocol.GradientPush{
		ModelVersion: 0, Gradient: grad, BatchSize: 10, LabelCounts: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Staleness != 4 {
		t.Fatalf("staleness %d, want 4", ack.Staleness)
	}
	if ack.Scale != learning.InverseDampening(4) {
		t.Fatalf("scale %v, want DynSGD dampening %v", ack.Scale, learning.InverseDampening(4))
	}
}

func TestGradientValidation(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, Config{})
	params, _ := s.Model()
	var apiErr *protocol.Error
	if _, err := s.PushGradient(ctx, &protocol.GradientPush{
		ModelVersion: 0, Gradient: []float64{1}, BatchSize: 10,
	}); err == nil {
		t.Error("wrong gradient size must error")
	} else if !errors.As(err, &apiErr) || apiErr.Code != protocol.CodeInvalidArgument {
		t.Errorf("wrong gradient size: want structured invalid_argument, got %v", err)
	}
	grad := make([]float64, len(params))
	if _, err := s.PushGradient(ctx, &protocol.GradientPush{
		ModelVersion: 0, Gradient: grad, BatchSize: 0,
	}); err == nil {
		t.Error("zero batch must error")
	}
	if _, err := s.PushGradient(ctx, &protocol.GradientPush{
		ModelVersion: 99, Gradient: grad, BatchSize: 1,
	}); err == nil {
		t.Error("future model version must error")
	} else if !errors.As(err, &apiErr) || apiErr.Code != protocol.CodeVersionConflict {
		t.Errorf("future version: want structured version_conflict, got %v", err)
	}
}

func TestRequestCanceledContext(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RequestTask(ctx, &protocol.TaskRequest{}); err == nil {
		t.Error("canceled context must error on RequestTask")
	}
	if _, err := s.Stats(ctx); err == nil {
		t.Error("canceled context must error on Stats")
	}
	var apiErr *protocol.Error
	_, err := s.PushGradient(ctx, &protocol.GradientPush{})
	if !errors.As(err, &apiErr) || apiErr.Code != protocol.CodeCanceled {
		t.Errorf("want structured canceled error, got %v", err)
	}
}

func TestSimilarityThresholdRejects(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, Config{Admission: sched.NewChain(sched.Similarity(0.9))})
	// Seed the global label distribution.
	params, _ := s.Model()
	grad := make([]float64, len(params))
	if _, err := s.PushGradient(ctx, &protocol.GradientPush{
		ModelVersion: 0, Gradient: grad, BatchSize: 10,
		LabelCounts: []int{10, 10, 0, 0, 0, 0, 0, 0, 0, 0},
	}); err != nil {
		t.Fatal(err)
	}
	// A worker with the identical distribution: similarity 1 > 0.9.
	resp, err := s.RequestTask(ctx, &protocol.TaskRequest{LabelCounts: []int{5, 5, 0, 0, 0, 0, 0, 0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted {
		t.Fatal("redundant task should be rejected")
	}
	// A novel worker passes.
	resp, err = s.RequestTask(ctx, &protocol.TaskRequest{LabelCounts: []int{0, 0, 0, 0, 0, 0, 0, 0, 5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Accepted {
		t.Fatalf("novel task rejected: %s", resp.Reason)
	}
	stats, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TasksDropped != 1 || stats.TasksServed != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestKAggregationDelaysUpdate(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, Config{K: 3, Algorithm: learning.SSGD{}})
	params, _ := s.Model()
	grad := make([]float64, len(params))
	grad[0] = 1
	for i := 0; i < 2; i++ {
		ack, err := s.PushGradient(ctx, &protocol.GradientPush{
			ModelVersion: 0, Gradient: grad, BatchSize: 1, LabelCounts: []int{1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if ack.NewVersion != 0 {
			t.Fatalf("version advanced before K gradients: %+v", ack)
		}
	}
	ack, err := s.PushGradient(ctx, &protocol.GradientPush{
		ModelVersion: 0, Gradient: grad, BatchSize: 1, LabelCounts: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack.NewVersion != 1 {
		t.Fatalf("version %d after K gradients, want 1", ack.NewVersion)
	}
}

func TestStatsMeanStaleness(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, Config{Algorithm: learning.SSGD{}})
	params, _ := s.Model()
	grad := make([]float64, len(params))
	for i := 0; i < 3; i++ {
		if _, err := s.PushGradient(ctx, &protocol.GradientPush{
			ModelVersion: 0, Gradient: grad, BatchSize: 1, LabelCounts: []int{1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Staleness sequence: 0, 1, 2 -> mean 1.
	stats, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MeanStaleness != 1 {
		t.Fatalf("mean staleness %v, want 1", stats.MeanStaleness)
	}
}

// TestConcurrentPushGradient hammers PushGradient from many goroutines,
// sparse and dense mixed, into the default mean window; run with -race it
// also proves the hot path is data-race free (the seed validated sparse
// payloads against server state before taking the lock).
func TestConcurrentPushGradient(t *testing.T) {
	ctx := context.Background()
	const workers, pushes = 8, 25
	s := newTestServer(t, Config{K: 4, Algorithm: learning.SSGD{}})
	paramCount := nn.ArchSoftmaxMNIST.Build(simrand.New(0)).ParamCount()

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < pushes; i++ {
				grad := make([]float64, paramCount)
				grad[(id*pushes+i)%paramCount] = 1e-3
				push := &protocol.GradientPush{
					WorkerID: id, ModelVersion: 0, Gradient: grad,
					BatchSize: 5, LabelCounts: []int{1, 1},
				}
				if i%3 == 0 {
					// Exercise the sparse-decode path concurrently too.
					push.Gradient = nil
					push.GradientLen = paramCount
					push.SparseIndices = []int32{int32(id)}
					push.SparseValues = []float64{1e-3}
				}
				if _, err := s.PushGradient(ctx, push); err != nil {
					errCh <- err
					return
				}
				// Interleave reads of the model and stats.
				if i%7 == 0 {
					s.Model()
					if _, err := s.Stats(ctx); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	stats, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.GradientsIn != workers*pushes {
		t.Fatalf("gradients in = %d, want %d", stats.GradientsIn, workers*pushes)
	}
	if stats.ModelVersion != workers*pushes/4 {
		t.Fatalf("model version = %d, want %d (K=4)", stats.ModelVersion, workers*pushes/4)
	}
}

// benchmarkPush measures concurrent dense PushGradient throughput into the
// mean window.
func benchmarkPush(b *testing.B) {
	ctx := context.Background()
	s := newTestServer(b, Config{K: 64, Algorithm: learning.SSGD{}, Arch: nn.ArchTinyMNIST})
	paramCount := nn.ArchTinyMNIST.Build(simrand.New(0)).ParamCount()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		grad := make([]float64, paramCount)
		for i := range grad {
			grad[i] = 1e-6
		}
		push := &protocol.GradientPush{ModelVersion: 0, Gradient: grad, BatchSize: 10, LabelCounts: []int{1}}
		for pb.Next() {
			if _, err := s.PushGradient(ctx, push); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchmarkPushWindow measures concurrent PushGradient throughput through
// a window-retention aggregator draining every k pushes — the robust-rule
// hot path the mean window cannot express.
func benchmarkPushWindow(b *testing.B, aggSpec string, k int) {
	ctx := context.Background()
	algo := learning.SSGD{}
	pipe, err := pipeline.Build("staleness", aggSpec, pipeline.BuildOptions{Algorithm: algo})
	if err != nil {
		b.Fatal(err)
	}
	s := newTestServer(b, Config{K: k, Algorithm: algo, Pipeline: pipe, Arch: nn.ArchTinyMNIST})
	paramCount := nn.ArchTinyMNIST.Build(simrand.New(0)).ParamCount()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		grad := make([]float64, paramCount)
		for i := range grad {
			grad[i] = 1e-6
		}
		push := &protocol.GradientPush{ModelVersion: 0, Gradient: grad, BatchSize: 10, LabelCounts: []int{1}}
		for pb.Next() {
			if _, err := s.PushGradient(ctx, push); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchmarkPushSparse measures the top-k uplink: with ascending indices
// the push scatters straight into the window's accumulator (zero O(params)
// work); with non-ascending indices it falls back to the legacy
// densify-then-add path — the before/after of the sparse accumulate
// redesign, visible in allocs/op.
func benchmarkPushSparse(b *testing.B, ascending bool) {
	ctx := context.Background()
	s := newTestServer(b, Config{K: 64, Algorithm: learning.SSGD{}, Arch: nn.ArchTinyMNIST})
	paramCount := nn.ArchTinyMNIST.Build(simrand.New(0)).ParamCount()
	const k = 64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		idx := make([]int32, k)
		vals := make([]float64, k)
		for i := range idx {
			idx[i] = int32(i * (paramCount / k))
			vals[i] = 1e-6
		}
		if !ascending {
			idx[0], idx[1] = idx[1], idx[0] // trips the densify fallback
		}
		push := &protocol.GradientPush{
			ModelVersion: 0, GradientLen: paramCount, SparseIndices: idx, SparseValues: vals,
			BatchSize: 10, LabelCounts: []int{1},
		}
		for pb.Next() {
			if _, err := s.PushGradient(ctx, push); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchmarkPushWindowClose measures one whole window at a realistic model
// size, K=4, DeltaHistory=4, without the wire: sparse is bench/perf's
// stream-tenant-sparse posture — the cifar100 CNN (325 k parameters), top-k
// 1 % uplinks — dense its inproc-dense one, the mnist CNN (12 k parameters)
// under 94 KB gradients. One op is four pushes, the last of which closes the
// window: apply, snapshot copy into recycled storage (nothing here pulls, so
// every snapshot comes back: B/op holds no model), step diff.
func benchmarkPushWindowClose(b *testing.B, sparse bool) {
	ctx := context.Background()
	var s *Server
	var pool []*protocol.GradientPush
	if sparse {
		s = newTestServer(b, Config{K: 4, Arch: nn.ArchCIFAR100})
		pool = sparsePool(s)
	} else {
		s = newTestServer(b, Config{K: 4, Arch: nn.ArchMNIST})
		rng := simrand.New(1)
		pool = make([]*protocol.GradientPush, 16)
		for p := range pool {
			grad := make([]float64, s.paramCount)
			for i := range grad {
				grad[i] = rng.NormFloat64() * 1e-3
			}
			pool[p] = &protocol.GradientPush{Gradient: grad, BatchSize: 10, LabelCounts: make([]int, s.classes)}
		}
	}
	push := func(i int) {
		g := pool[i%len(pool)]
		g.ModelVersion = s.core.Snapshot().Version
		if _, err := s.PushGradient(ctx, g); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4*(s.core.Config().DeltaHistory+1); i++ { // fill the delta history
		push(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < 4*b.N; i++ {
		push(i)
	}
}

func BenchmarkPushGradient(b *testing.B) {
	b.Run("sparse-window-close", func(b *testing.B) { benchmarkPushWindowClose(b, true) })
	b.Run("dense-window-close", func(b *testing.B) { benchmarkPushWindowClose(b, false) })
	b.Run("dense", benchmarkPush)
	for _, k := range []int{8, 64} {
		b.Run(fmt.Sprintf("window=%d", k), func(b *testing.B) { benchmarkPushWindow(b, "median", k) })
	}
	b.Run("sparse", func(b *testing.B) { benchmarkPushSparse(b, true) })
	b.Run("sparse-densify", func(b *testing.B) { benchmarkPushSparse(b, false) })
}

// TestSparseAccumulateMatchesDensify drives the same gradient stream
// through two identically seeded servers — one receiving top-k pushes
// (which travel the zero-copy scatter path: the default pipeline is
// staleness → mean, both sparse-capable), the other receiving the
// densified form of each push — and requires bit-for-bit equal final
// models. The scatter path must be arithmetically invisible.
func TestSparseAccumulateMatchesDensify(t *testing.T) {
	ctx := context.Background()
	sparse := newTestServer(t, Config{K: 3, Algorithm: learning.SSGD{}})
	dense := newTestServer(t, Config{K: 3, Algorithm: learning.SSGD{}})
	if !sparse.Pipeline().SparseCapable() {
		t.Fatal("default pipeline must be sparse-capable")
	}
	paramCount := sparse.paramCount
	rng := rand.New(rand.NewSource(7))

	for i := 0; i < 12; i++ {
		const k = 16
		idx := make([]int32, 0, k)
		seen := map[int32]bool{}
		for len(idx) < k {
			id := rng.Int31n(int32(paramCount))
			if !seen[id] {
				seen[id] = true
				idx = append(idx, id)
			}
		}
		// The wire contract: strictly ascending indices (TopK's shape).
		for a := 1; a < len(idx); a++ {
			for b := a; b > 0 && idx[b] < idx[b-1]; b-- {
				idx[b], idx[b-1] = idx[b-1], idx[b]
			}
		}
		vals := make([]float64, k)
		for j := range vals {
			vals[j] = rng.NormFloat64() * 1e-3
		}
		sp := compress.Sparse{Len: paramCount, Indices: idx, Values: vals}

		_, v := sparse.Model()
		if _, err := sparse.PushGradient(ctx, &protocol.GradientPush{
			ModelVersion: v, GradientLen: paramCount, SparseIndices: idx, SparseValues: vals,
			Encoding: compress.EncodingTopK, BatchSize: 5, LabelCounts: []int{1, 1},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := dense.PushGradient(ctx, &protocol.GradientPush{
			ModelVersion: v, Gradient: sp.Dense(), BatchSize: 5, LabelCounts: []int{1, 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	p1, v1 := sparse.Model()
	p2, v2 := dense.Model()
	if v1 != v2 {
		t.Fatalf("versions diverged: %d vs %d", v1, v2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("param %d diverged: %v vs %v", i, p1[i], p2[i])
		}
	}
}

// TestQuantizedPushMatchesDequantized proves the quantized uplink forms
// are pure wire encodings: pushing a q8 (or f16) top-k gradient applies
// exactly the same update as pushing the server-side dequantized values.
func TestQuantizedPushMatchesDequantized(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	for _, enc := range []string{compress.EncodingTopKQ8, compress.EncodingTopKF16} {
		quant := newTestServer(t, Config{Algorithm: learning.SSGD{}})
		plain := newTestServer(t, Config{Algorithm: learning.SSGD{}})
		paramCount := quant.paramCount
		idx := []int32{1, 5, 99, int32(paramCount - 1)}
		vals := make([]float64, len(idx))
		for j := range vals {
			vals[j] = rng.NormFloat64()
		}
		sp := compress.Sparse{Len: paramCount, Indices: idx, Values: vals}
		push := &protocol.GradientPush{
			ModelVersion: 0, GradientLen: paramCount, SparseIndices: idx,
			Encoding: enc, BatchSize: 5, LabelCounts: []int{1, 1},
		}
		var dequant []float64
		if enc == compress.EncodingTopKQ8 {
			q := compress.QuantizeSparseQ8(rng, sp)
			push.SparseQ8Levels = q.Levels
			push.SparseQ8Min = q.Min
			push.SparseQ8Max = q.Max
			dequant = q.Sparse().Values
		} else {
			f := compress.QuantizeSparseF16(rng, sp)
			push.SparseF16 = f.Values
			dequant = compress.UnpackF16(f.Values)
		}
		if _, err := quant.PushGradient(ctx, push); err != nil {
			t.Fatal(err)
		}
		if _, err := plain.PushGradient(ctx, &protocol.GradientPush{
			ModelVersion: 0, GradientLen: paramCount, SparseIndices: idx, SparseValues: dequant,
			BatchSize: 5, LabelCounts: []int{1, 1},
		}); err != nil {
			t.Fatal(err)
		}
		p1, _ := quant.Model()
		p2, _ := plain.Model()
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("%s: param %d diverged: %v vs %v", enc, i, p1[i], p2[i])
			}
		}
	}
}

// TestMismatchedEncodingTagRejected: a push whose Encoding tag disagrees
// with its populated fields is structurally invalid.
func TestMismatchedEncodingTagRejected(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, Config{})
	grad := make([]float64, s.paramCount)
	var apiErr *protocol.Error
	_, err := s.PushGradient(ctx, &protocol.GradientPush{
		ModelVersion: 0, Gradient: grad, Encoding: compress.EncodingTopK,
		BatchSize: 5, LabelCounts: []int{1},
	})
	if !errors.As(err, &apiErr) || apiErr.Code != protocol.CodeInvalidArgument {
		t.Fatalf("want invalid_argument for tag/field mismatch, got %v", err)
	}
}

// TestMeanPipelineEquivalentToDefault drives identical sequential pushes
// through a server with the implicit default pipeline and one with an
// explicitly spec-built "staleness -> mean" pipeline: final parameters,
// version and acked scales must match bit-for-bit (the pipeline API only
// re-houses the legacy accumulate path, it never changes the arithmetic).
func TestMeanPipelineEquivalentToDefault(t *testing.T) {
	ctx := context.Background()
	adaCfg := learning.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 5}

	implicit := newTestServer(t, Config{K: 4, Algorithm: learning.NewAdaSGD(adaCfg)})

	explicitAlgo := learning.NewAdaSGD(adaCfg)
	pipe, err := pipeline.Build("staleness", "mean", pipeline.BuildOptions{Algorithm: explicitAlgo})
	if err != nil {
		t.Fatal(err)
	}
	explicit := newTestServer(t, Config{K: 4, Algorithm: explicitAlgo, Pipeline: pipe})

	params, _ := implicit.Model()
	for i := 0; i < 20; i++ {
		grad := make([]float64, len(params))
		grad[i%len(grad)] = float64(i + 1)
		// Re-push older versions so staleness scaling actually engages.
		_, v := implicit.Model()
		version := v - i%3
		if version < 0 {
			version = 0
		}
		push := protocol.GradientPush{ModelVersion: version, Gradient: grad, BatchSize: 5, LabelCounts: []int{1, 2}}
		push2 := push
		ack1, err := implicit.PushGradient(ctx, &push)
		if err != nil {
			t.Fatal(err)
		}
		ack2, err := explicit.PushGradient(ctx, &push2)
		if err != nil {
			t.Fatal(err)
		}
		if ack1.Scale != ack2.Scale || ack1.NewVersion != ack2.NewVersion {
			t.Fatalf("push %d: acks diverged: %+v vs %+v", i, ack1, ack2)
		}
	}
	p1, v1 := implicit.Model()
	p2, v2 := explicit.Model()
	if v1 != v2 {
		t.Fatalf("versions diverged: %d vs %d", v1, v2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("param %d diverged: %v vs %v", i, p1[i], p2[i])
		}
	}
}

// TestWindowPipelineKrumRejectsOutlier runs a Krum-aggregated server
// in-process: a window of four honest gradients plus one amplified
// sign-flipped gradient must move the model in the honest direction.
func TestWindowPipelineKrumRejectsOutlier(t *testing.T) {
	ctx := context.Background()
	algo := learning.SSGD{}
	pipe, err := pipeline.Build("staleness", "krum(1)", pipeline.BuildOptions{Algorithm: algo})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{K: 5, Algorithm: algo, Pipeline: pipe})
	params, _ := s.Model()

	honest := make([]float64, len(params))
	honest[0] = 1
	byz := make([]float64, len(params))
	byz[0] = -5
	for i := 0; i < 4; i++ {
		if _, err := s.PushGradient(ctx, &protocol.GradientPush{
			ModelVersion: 0, Gradient: honest, BatchSize: 1, LabelCounts: []int{1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	ack, err := s.PushGradient(ctx, &protocol.GradientPush{
		ModelVersion: 0, Gradient: byz, BatchSize: 1, LabelCounts: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack.NewVersion != 1 {
		t.Fatalf("window of 5 must drain: ack %+v", ack)
	}
	after, _ := s.Model()
	// Gradient descent with an honest +1 gradient decreases param 0; the
	// Byzantine -5 gradient would increase it. Krum must pick an honest one.
	if after[0] >= params[0] {
		t.Fatalf("Krum applied the Byzantine direction: %v -> %v", params[0], after[0])
	}
	stats, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Aggregator != "Krum(f=1)" {
		t.Fatalf("stats aggregator = %q", stats.Aggregator)
	}
	if len(stats.PipelineStages) != 1 || stats.PipelineStages[0] != "staleness(SSGD)" {
		t.Fatalf("stats stages = %v", stats.PipelineStages)
	}
}

// TestNormFilterRejectsBeforeCounting proves a stage rejection surfaces as
// a structured invalid_argument and leaves no trace in the K-window or the
// gradient counters.
func TestNormFilterRejectsBeforeCounting(t *testing.T) {
	ctx := context.Background()
	algo := learning.SSGD{}
	pipe, err := pipeline.Build("staleness,norm-filter(0.5)", "mean", pipeline.BuildOptions{Algorithm: algo})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{K: 1, Algorithm: algo, Pipeline: pipe})
	params, _ := s.Model()
	big := make([]float64, len(params))
	big[0] = 10
	var apiErr *protocol.Error
	_, err = s.PushGradient(ctx, &protocol.GradientPush{
		ModelVersion: 0, Gradient: big, BatchSize: 1, LabelCounts: []int{1},
	})
	if !errors.As(err, &apiErr) || apiErr.Code != protocol.CodeInvalidArgument {
		t.Fatalf("want invalid_argument from the norm filter, got %v", err)
	}
	stats, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.GradientsIn != 0 || stats.ModelVersion != 0 {
		t.Fatalf("rejected gradient leaked into stats: %+v", stats)
	}
	small := make([]float64, len(params))
	small[0] = 0.1
	if _, err := s.PushGradient(ctx, &protocol.GradientPush{
		ModelVersion: 0, Gradient: small, BatchSize: 1, LabelCounts: []int{1},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentWindowRetentionPushes hammers a retained-window (median)
// server from many goroutines; with -race it proves the window-retention
// mode is data-race free end-to-end through PushGradient.
func TestConcurrentWindowRetentionPushes(t *testing.T) {
	ctx := context.Background()
	const workers, pushes = 8, 25
	algo := learning.SSGD{}
	pipe, err := pipeline.Build("staleness", "median", pipeline.BuildOptions{Algorithm: algo})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{K: 4, Algorithm: algo, Pipeline: pipe})
	paramCount := nn.ArchSoftmaxMNIST.Build(simrand.New(0)).ParamCount()

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < pushes; i++ {
				grad := make([]float64, paramCount)
				grad[(id*pushes+i)%paramCount] = 1e-3
				if _, err := s.PushGradient(ctx, &protocol.GradientPush{
					WorkerID: id, ModelVersion: 0, Gradient: grad,
					BatchSize: 5, LabelCounts: []int{1, 1},
				}); err != nil {
					errCh <- err
					return
				}
				if i%7 == 0 {
					s.Model()
					if _, err := s.Stats(ctx); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	stats, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.GradientsIn != workers*pushes {
		t.Fatalf("gradients in = %d, want %d", stats.GradientsIn, workers*pushes)
	}
	if stats.ModelVersion != workers*pushes/4 {
		t.Fatalf("model version = %d, want %d (K=4)", stats.ModelVersion, workers*pushes/4)
	}
}
