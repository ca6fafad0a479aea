package server

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"fleet/internal/compress"
	"fleet/internal/device"
	"fleet/internal/ingest"
	"fleet/internal/iprof"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/persist"
	"fleet/internal/protocol"
	"fleet/internal/sched"
	"fleet/internal/simrand"
)

// newProfiler builds a deterministic I-Prof instance; identical seeds give
// identical cold-start models and, fed identical observation streams,
// identical online state.
func newProfiler(t testing.TB, kind iprof.Kind, slo float64, seed int64) *iprof.IProf {
	t.Helper()
	data := iprof.Collect(simrand.New(seed), device.Catalogue()[:8], kind, slo)
	prof, err := iprof.New(iprof.Config{Epsilon: 2e-4, RetrainEvery: 50}, data.Observations)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// TestAdmissionEquivalentToLegacy proves the spec-built admission chain
// reproduces the pre-sched hardwired controller decision-for-decision. An
// inline oracle replicates the legacy RequestTask logic (profiler batch
// sizing with time-replaces/energy-lowers semantics, min-batch before
// similarity, exact reject strings) against a profiler pair fed the same
// observations and a mirror of the label tracker. Oracle and server must
// agree on every accept/reject, reason and batch size over a stream that
// exercises profiler evolution and label drift. (That the four node.Spec
// knobs mean exactly this chain is node's TestSpecKnobsEqualAdmissionString.)
func TestAdmissionEquivalentToLegacy(t *testing.T) {
	ctx := context.Background()
	const (
		timeSLO   = 2.5
		energySLO = 4.0
		minBatch  = 25
		maxSim    = 0.97
	)

	// The oracle reads the server's own profiler pair (BatchSize is
	// read-only), which the push stream below keeps training.
	tProfA := newProfiler(t, iprof.KindTime, timeSLO, 7)
	eProfA := newProfiler(t, iprof.KindEnergy, energySLO, 8)

	chain, err := sched.Build(
		fmt.Sprintf("iprof-time(%g),iprof-energy(%g),min-batch(%d),similarity(%g)",
			timeSLO, energySLO, minBatch, maxSim),
		sched.BuildOptions{TimeProfiler: tProfA, EnergyProfiler: eProfA})
	if err != nil {
		t.Fatal(err)
	}
	explicit := newTestServer(t, Config{
		Algorithm:      learning.SSGD{},
		Admission:      chain,
		TimeProfiler:   tProfA,
		EnergyProfiler: eProfA,
	})

	// The oracle's mirror of LD_global: SSGD's absorb weight is 1, so the
	// servers record accepted pushes at weight 1.
	mirror := learning.NewLabelTracker(nn.ArchSoftmaxMNIST.Classes())
	oracle := func(req *protocol.TaskRequest) (accept bool, reason string, batch int) {
		// Legacy order: the time prediction replaces the 100 default, the
		// energy prediction lowers, then min-batch before similarity.
		batch = tProfA.BatchSize(req.DeviceModel, req.TimeFeatures, timeSLO)
		if e := eProfA.BatchSize(req.DeviceModel, req.EnergyFeatures, energySLO); e < batch {
			batch = e
		}
		sim := mirror.Similarity(req.LabelCounts)
		if batch < minBatch {
			return false, "mini-batch size below threshold", 0
		}
		if sim > maxSim {
			return false, "similarity above threshold", 0
		}
		return true, "", batch
	}

	params, _ := explicit.Model()
	models := device.Catalogue()
	rng := simrand.New(42)
	accepted, rejected := 0, 0
	for i := 0; i < 120; i++ {
		dev := device.New(models[i%len(models)], simrand.New(int64(1000+i)))
		labels := make([]int, 10)
		labels[i%10] = 5 + i%3
		labels[(i+3)%10] = 2
		req := &protocol.TaskRequest{
			WorkerID:       i % 6,
			DeviceModel:    dev.Model.Name,
			TimeFeatures:   dev.Features(),
			EnergyFeatures: dev.EnergyFeatures(),
			LabelCounts:    labels,
		}
		wantAccept, wantReason, wantBatch := oracle(req)
		got, err := explicit.RequestTask(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Accepted != wantAccept || got.Reason != wantReason {
			t.Fatalf("step %d: got accept=%v reason=%q, oracle accept=%v reason=%q",
				i, got.Accepted, got.Reason, wantAccept, wantReason)
		}
		if wantAccept && got.BatchSize != wantBatch {
			t.Fatalf("step %d: batch %d, oracle %d", i, got.BatchSize, wantBatch)
		}
		if wantAccept {
			accepted++
		} else {
			rejected++
		}

		// Every few steps, push a gradient through the server (and the
		// mirror) so profiler state and LD_global evolve mid-stream.
		if i%4 == 0 {
			grad := make([]float64, len(params))
			grad[i%len(grad)] = 1e-3
			res := dev.Execute(50)
			push := protocol.GradientPush{
				WorkerID: i % 6, DeviceModel: dev.Model.Name, ModelVersion: 0,
				Gradient: grad, BatchSize: 50, LabelCounts: labels,
				CompTimeSec: res.LatencySec, EnergyPct: res.EnergyPct,
				TimeFeatures:   iprof.FeaturesOf(dev, iprof.KindTime),
				EnergyFeatures: iprof.FeaturesOf(dev, iprof.KindEnergy),
			}
			_, push.ModelVersion = explicit.Model()
			if _, err := explicit.PushGradient(ctx, &push); err != nil {
				t.Fatal(err)
			}
			mirror.RecordWeighted(labels, 1)
			rng.Int63() // keep the stream stirred even if unused
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("stream did not exercise both outcomes: %d accepted, %d rejected", accepted, rejected)
	}

	// The server's stats must agree with the oracle's tally, and attribute
	// rejects to named policies.
	s1, err := explicit.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s1.TasksServed != accepted || s1.TasksDropped != rejected {
		t.Fatalf("stats served=%d dropped=%d, oracle %d/%d",
			s1.TasksServed, s1.TasksDropped, accepted, rejected)
	}
	total := 0
	for _, n := range s1.RejectsByPolicy {
		total += n
	}
	if total != rejected {
		t.Fatalf("per-policy rejects %v sum to %d, want %d", s1.RejectsByPolicy, total, rejected)
	}
}

// TestDefaultAdmissionChainComposition: a configured chain is the server's
// chain, and a nil one is the empty, admit-all chain.
func TestDefaultAdmissionChainComposition(t *testing.T) {
	s := newTestServer(t, Config{Admission: sched.NewChain(sched.MinBatch(5), sched.Similarity(0.9))})
	want := []string{"min-batch(5)", "similarity(0.9)"}
	got := sched.Names(s.Admission())
	if len(got) != len(want) {
		t.Fatalf("chain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chain = %v, want %v", got, want)
		}
	}
	// No knobs set: the empty, admit-all chain.
	s2 := newTestServer(t, Config{})
	if names := sched.Names(s2.Admission()); len(names) != 0 {
		t.Fatalf("unconfigured server built chain %v", names)
	}
}

// TestTaskLabelCountValidation proves malformed label histograms surface
// as structured invalid_argument at the protocol boundary for both
// RequestTask and PushGradient.
func TestTaskLabelCountValidation(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, Config{}) // softmax-mnist: 10 classes
	params, _ := s.Model()

	tooLong := make([]int, 11)
	negative := []int{1, -2, 3}

	var apiErr *protocol.Error
	for name, counts := range map[string][]int{"too-long": tooLong, "negative": negative} {
		_, err := s.RequestTask(ctx, &protocol.TaskRequest{LabelCounts: counts})
		if !errors.As(err, &apiErr) || apiErr.Code != protocol.CodeInvalidArgument {
			t.Errorf("RequestTask %s: want invalid_argument, got %v", name, err)
		}
		_, err = s.PushGradient(ctx, &protocol.GradientPush{
			ModelVersion: 0, Gradient: make([]float64, len(params)), BatchSize: 1, LabelCounts: counts,
		})
		if !errors.As(err, &apiErr) || apiErr.Code != protocol.CodeInvalidArgument {
			t.Errorf("PushGradient %s: want invalid_argument, got %v", name, err)
		}
	}
	// Rejected requests must not leak into any counter.
	stats, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TasksServed != 0 || stats.TasksDropped != 0 || stats.GradientsIn != 0 {
		t.Fatalf("validation failures leaked into stats: %+v", stats)
	}
	// Shorter-than-classes histograms stay legal (trailing labels empty).
	if _, err := s.RequestTask(ctx, &protocol.TaskRequest{LabelCounts: []int{1, 2}}); err != nil {
		t.Fatalf("short label vector must pass: %v", err)
	}
}

// pushSparse pushes a one-coordinate sparse gradient at the server's
// current version.
func pushSparse(t *testing.T, s *Server, idx int32, val float64) {
	t.Helper()
	_, v := s.Model()
	if _, err := s.PushGradient(context.Background(), &protocol.GradientPush{
		ModelVersion: v, GradientLen: s.paramCount,
		SparseIndices: []int32{idx}, SparseValues: []float64{val},
		BatchSize: 1, LabelCounts: []int{1},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaPullReconstructsExactParams is the acceptance test for
// version-aware pulls: a worker holding version t−τ applies the served
// sparse delta and must land bit-for-bit on the server's current params.
func TestDeltaPullReconstructsExactParams(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, Config{Algorithm: learning.SSGD{}}) // K=1, DeltaHistory default 4

	// Full pull at version 0.
	full, err := s.RequestTask(ctx, &protocol.TaskRequest{LabelCounts: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if full.ParamsDelta != nil || len(full.Params) == 0 || full.ModelVersion != 0 {
		t.Fatalf("initial pull = %+v", full)
	}
	cached := append([]float64(nil), full.Params...)

	// Three sparse updates: versions 1, 2, 3.
	pushSparse(t, s, 3, 0.5)
	pushSparse(t, s, 7, -0.25)
	pushSparse(t, s, 3, 0.125)

	// τ = 3 delta pull from version 0.
	resp, err := s.RequestTask(ctx, &protocol.TaskRequest{
		LabelCounts: []int{1}, WantDelta: true, KnownVersion: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ParamsDelta == nil || resp.DeltaBase != 0 || resp.ModelVersion != 3 {
		t.Fatalf("delta pull = %+v", resp)
	}
	if nnz := len(resp.ParamsDelta.Indices); nnz != 2 {
		t.Fatalf("delta nnz = %d, want 2 (coords 3 and 7)", nnz)
	}
	if err := resp.ParamsDelta.Patch(cached); err != nil {
		t.Fatal(err)
	}
	want, wantV := s.Model()
	if wantV != 3 {
		t.Fatalf("server at version %d", wantV)
	}
	for i := range want {
		if cached[i] != want[i] {
			t.Fatalf("coord %d: reconstructed %v, server %v", i, cached[i], want[i])
		}
	}

	// Already current: the empty delta.
	resp, err = s.RequestTask(ctx, &protocol.TaskRequest{
		LabelCounts: []int{1}, WantDelta: true, KnownVersion: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ParamsDelta == nil || len(resp.ParamsDelta.Indices) != 0 || resp.DeltaBase != 3 {
		t.Fatalf("current-version pull = %+v", resp)
	}

	// τ beyond DeltaHistory: transparent full fallback.
	for i := 0; i < 5; i++ {
		pushSparse(t, s, int32(10+i), 0.5)
	}
	resp, err = s.RequestTask(ctx, &protocol.TaskRequest{
		LabelCounts: []int{1}, WantDelta: true, KnownVersion: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ParamsDelta != nil || len(resp.Params) != s.paramCount {
		t.Fatalf("stale pull must fall back to full: %+v", resp)
	}

	// A claimed future version: full fallback, never an error.
	resp, err = s.RequestTask(ctx, &protocol.TaskRequest{
		LabelCounts: []int{1}, WantDelta: true, KnownVersion: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ParamsDelta != nil || resp.Params == nil {
		t.Fatalf("future-version pull = %+v", resp)
	}

	// The initial full response must still hold version-0 params: serving
	// shares immutable snapshot storage, drains never write in place.
	fresh := nn.ArchSoftmaxMNIST.Build(simrand.New(0)).ParamVector()
	for i := range fresh {
		if full.Params[i] != fresh[i] {
			t.Fatalf("version-0 response mutated at coord %d after later drains", i)
		}
	}
}

// TestDeltaPullDenseUpdateFallsBack: when an update touches more than half
// the vector, the precomputed delta is abandoned and pulls fall back to
// full — the sparse form would cost more wire than it saves.
func TestDeltaPullDenseUpdateFallsBack(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, Config{Algorithm: learning.SSGD{}})
	params, _ := s.Model()
	dense := make([]float64, len(params))
	for i := range dense {
		dense[i] = 1e-3
	}
	if _, err := s.PushGradient(ctx, &protocol.GradientPush{
		ModelVersion: 0, Gradient: dense, BatchSize: 1, LabelCounts: []int{1},
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := s.RequestTask(ctx, &protocol.TaskRequest{
		LabelCounts: []int{1}, WantDelta: true, KnownVersion: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ParamsDelta != nil || len(resp.Params) == 0 {
		t.Fatalf("dense update must serve full params: delta=%v params=%d", resp.ParamsDelta, len(resp.Params))
	}
}

// TestDeltaHistoryDisabled: a negative DeltaHistory turns version-aware
// pulls off entirely.
func TestDeltaHistoryDisabled(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, Config{Algorithm: learning.SSGD{}, DeltaHistory: -1})
	pushSparse(t, s, 1, 0.5)
	resp, err := s.RequestTask(ctx, &protocol.TaskRequest{
		LabelCounts: []int{1}, WantDelta: true, KnownVersion: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ParamsDelta != nil {
		t.Fatalf("disabled delta history still served a delta: %+v", resp)
	}
}

// TestPerPolicyRejectCounters drives rejections through two different
// policies and checks the stats attribution.
func TestPerPolicyRejectCounters(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, Config{
		Admission: sched.NewChain(sched.MinBatch(200), sched.Similarity(0.9)),
	})
	// Default batch 100 < 200: every request rejected by min-batch.
	for i := 0; i < 3; i++ {
		resp, err := s.RequestTask(ctx, &protocol.TaskRequest{LabelCounts: []int{1}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Accepted {
			t.Fatal("batch 100 < 200 must reject")
		}
	}
	stats, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TasksDropped != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.RejectsByPolicy["min-batch(200)"] != 3 {
		t.Fatalf("rejects by policy = %v", stats.RejectsByPolicy)
	}
	if len(stats.AdmissionPolicies) != 2 || stats.AdmissionPolicies[0] != "min-batch(200)" {
		t.Fatalf("admission policies = %v", stats.AdmissionPolicies)
	}
}

// TestConcurrentRequestAndPush hammers the lock-free pull path against the
// gradient-commit path from many goroutines; with -race it proves the
// snapshot handoff (shared immutable params, precomputed deltas, atomic
// counters) is data-race free.
func TestConcurrentRequestAndPush(t *testing.T) {
	ctx := context.Background()
	const pushers, pullers, iters = 4, 4, 50
	s := newTestServer(t, Config{K: 2, Algorithm: learning.SSGD{}})
	paramCount := s.paramCount

	var wg sync.WaitGroup
	errCh := make(chan error, pushers+pullers)
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				push := &protocol.GradientPush{
					WorkerID: id, ModelVersion: 0,
					BatchSize: 5, LabelCounts: []int{1, 1},
				}
				if i%2 == 0 {
					push.GradientLen = paramCount
					push.SparseIndices = []int32{int32((id*iters + i) % paramCount)}
					push.SparseValues = []float64{1e-3}
				} else {
					grad := make([]float64, paramCount)
					grad[(id*iters+i)%paramCount] = 1e-3
					push.Gradient = grad
				}
				if _, err := s.PushGradient(ctx, push); err != nil {
					errCh <- err
					return
				}
			}
		}(p)
	}
	for p := 0; p < pullers; p++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			known, cached := -1, []float64(nil)
			for i := 0; i < iters; i++ {
				req := &protocol.TaskRequest{WorkerID: 100 + id, LabelCounts: []int{1, 2}}
				if known >= 0 {
					req.WantDelta = true
					req.KnownVersion = known
				}
				resp, err := s.RequestTask(ctx, req)
				if err != nil {
					errCh <- err
					return
				}
				if resp.ParamsDelta != nil {
					if resp.DeltaBase != known {
						errCh <- fmt.Errorf("delta base %d, known %d", resp.DeltaBase, known)
						return
					}
					if err := resp.ParamsDelta.Patch(cached); err != nil {
						errCh <- err
						return
					}
				} else {
					cached = append(cached[:0], resp.Params...)
				}
				known = resp.ModelVersion
				if i%9 == 0 {
					if _, err := s.Stats(ctx); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(p)
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
	if stats.GradientsIn != pushers*iters || stats.TasksServed != pullers*iters {
		t.Fatalf("stats = %+v", stats)
	}
}

// BenchmarkRequestTask measures the lock-free pull path: "snapshot" serves
// the published snapshot whole, "snapshot-delta" hands off its precomputed
// delta.
func BenchmarkRequestTask(b *testing.B) {
	ctx := context.Background()

	b.Run("snapshot", func(b *testing.B) {
		s := newTestServer(b, Config{Algorithm: learning.SSGD{}, Arch: nn.ArchTinyMNIST})
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			req := &protocol.TaskRequest{WorkerID: 1, LabelCounts: []int{1}}
			for pb.Next() {
				if _, err := s.RequestTask(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	})

	b.Run("snapshot-delta", func(b *testing.B) {
		s := newTestServer(b, Config{Algorithm: learning.SSGD{}, Arch: nn.ArchTinyMNIST})
		// One sparse update so version 0 has a real precomputed delta.
		_, v := s.Model()
		if _, err := s.PushGradient(ctx, &protocol.GradientPush{
			ModelVersion: v, GradientLen: s.paramCount,
			SparseIndices: []int32{1}, SparseValues: []float64{1e-3},
			BatchSize: 1, LabelCounts: []int{1},
		}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			req := &protocol.TaskRequest{WorkerID: 1, LabelCounts: []int{1}, WantDelta: true, KnownVersion: 0}
			for pb.Next() {
				if _, err := s.RequestTask(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// TestPublishedDeltasMatchDiff is the server-level equivalence oracle of the
// composed delta history: a server just built by Restore (empty history)
// runs windows of top-k pushes (applied at the touched coordinates only,
// which records the step), dense and mixed windows, windows that cancel the
// previous one, and a NaN a peer slipped in — and after every drain each
// delta the snapshot publishes must equal compress.Diff(base, params, P/2)
// against the params that version served, and a version Diff abandons must
// be absent.
func TestPublishedDeltasMatchDiff(t *testing.T) {
	ctx := context.Background()
	for _, depth := range []int{1, 4} {
		donor := newTestServer(t, Config{Algorithm: learning.SSGD{}, K: 2})
		pushN(t, donor, 6)
		params, version := donor.Model()
		s, err := Restore(Config{
			Arch: nn.ArchSoftmaxMNIST, Algorithm: learning.SSGD{}, LearningRate: 0.1, K: 2, DeltaHistory: depth,
		}, &persist.State{Arch: nn.ArchSoftmaxMNIST.String(), Version: version, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		// Every lease this test takes is kept: what it compares against must
		// not be recycled under it.
		if d := s.core.Lease().Delta(version - 1); d != nil {
			t.Fatalf("restored server serves a delta from v%d before any drain", version-1)
		}

		rng := simrand.New(int64(depth))
		// topk is a sparse push of n random coordinates, ascending.
		topk := func(n int) *protocol.GradientPush {
			picked := rng.Perm(s.paramCount)[:n]
			sort.Ints(picked)
			p := &protocol.GradientPush{GradientLen: s.paramCount}
			for _, c := range picked {
				p.SparseIndices = append(p.SparseIndices, int32(c))
				p.SparseValues = append(p.SparseValues, rng.NormFloat64())
			}
			return p
		}
		negated := func(p *protocol.GradientPush) *protocol.GradientPush {
			q := &protocol.GradientPush{GradientLen: p.GradientLen, SparseIndices: p.SparseIndices}
			for _, v := range p.SparseValues {
				q.SparseValues = append(q.SparseValues, -v)
			}
			for _, v := range p.Gradient {
				q.Gradient = append(q.Gradient, -v)
			}
			return q
		}
		dense := func() *protocol.GradientPush {
			p := &protocol.GradientPush{Gradient: make([]float64, s.paramCount)}
			for i := range p.Gradient {
				p.Gradient[i] = rng.NormFloat64() * 1e-3
			}
			return p
		}

		served := []*ingest.Lease{s.core.Lease()} // every snapshot of this incarnation
		var last [2]*protocol.GradientPush
		for w := 0; w < 60; w++ {
			var window [2]*protocol.GradientPush
			switch op := rng.Intn(8); {
			case op == 0: // dense window: past the half-vector bound
				window = [2]*protocol.GradientPush{dense(), topk(3)}
			case op == 1 && last[0] != nil: // cancel the previous window: most coordinates revert
				window = [2]*protocol.GradientPush{negated(last[0]), negated(last[1])}
			case op == 2: // a sparse window with a few coordinates in dense form: opaque, but sparse
				g := topk(5).SparseIndices
				window = [2]*protocol.GradientPush{{Gradient: make([]float64, s.paramCount)}, topk(4)}
				for _, c := range g {
					window[0].Gradient[c] = 1
				}
			case w == 30: // a peer pushes a NaN: it stays in the model, and in every delta
				window = [2]*protocol.GradientPush{topk(2), topk(2)}
				window[0].SparseValues[0] = math.NaN()
			default:
				window = [2]*protocol.GradientPush{topk(1 + rng.Intn(20)), topk(1 + rng.Intn(20))}
			}
			last = window
			// A delta pull from the oldest base that may still be retained
			// races the drain: whichever snapshot it is served from, it
			// must reconstruct that snapshot exactly.
			racer := served[max(0, len(served)-depth)]
			raced := make(chan *protocol.TaskResponse, 1)
			go func() { raced <- deltaPull(t, s, racer.Version) }()
			for _, push := range window { // K=2: the second push closes the window
				push.ModelVersion, push.ModelEpoch = s.core.Snapshot().Version, s.epoch
				push.BatchSize, push.LabelCounts = 1, []int{1}
				if _, err := s.PushGradient(ctx, push); err != nil {
					t.Fatal(err)
				}
			}
			snap := s.core.Lease()
			served = append(served, snap)
			if resp := <-raced; resp != nil {
				target := served[resp.ModelVersion-version]
				got := resp.Params
				if resp.ParamsDelta != nil {
					got = append([]float64(nil), racer.Params()...)
					if err := resp.ParamsDelta.Patch(got); err != nil {
						t.Fatal(err)
					}
				}
				for i := range target.Params() {
					if math.Float64bits(got[i]) != math.Float64bits(target.Params()[i]) {
						t.Fatalf("depth %d window %d: pull from v%d racing the drain does not reconstruct v%d at %d",
							depth, w, racer.Version, target.Version, i)
					}
				}
			}
			bases := served[:len(served)-1]
			if len(bases) > depth {
				// One past the depth: not retained, so a full pull.
				past := bases[len(bases)-depth-1]
				if resp := deltaPull(t, s, past.Version); resp == nil || len(resp.Params) == 0 || resp.ParamsDelta != nil || snap.Delta(past.Version) != nil {
					t.Fatalf("depth %d window %d: base v%d is past the history but was not served a full pull", depth, w, past.Version)
				}
				bases = bases[len(bases)-depth:]
			}
			for _, b := range bases {
				d, ok := compress.Diff(b.Params(), snap.Params(), s.paramCount/2)
				got := snap.Delta(b.Version)
				if ok != (got != nil) {
					t.Fatalf("depth %d window %d base v%d: Diff ok=%v, published=%v", depth, w, b.Version, ok, got != nil)
				}
				if !ok {
					continue
				}
				if !sameDelta(*got, d) {
					t.Fatalf("depth %d window %d base v%d: published delta differs from Diff (nnz %d vs %d)",
						depth, w, b.Version, len(got.Indices), len(d.Indices))
				}
			}
		}
	}
}

// TestPublishedStepsMatchDiff is the step oracle of a sparse window: over a
// random run of windows, the v−1→v delta each drain publishes — the step
// its apply recorded, as it is — equals compress.Diff(v−1, v, P/2) field
// for field, and is absent exactly when Diff abandons. The windows write
// steps below half an ulp of their parameter, NaNs (coordinates 0–1 are
// NaN from the start and sometimes written, 2–3 never, so no step names
// them: their bits never change), ±0 gradients onto ±0 parameters, and one
// in five crosses the half-vector bound. A mean window never holds a −0, so
// the root cannot flip a zero's sign; TestRelayedStepsMatchDiff covers that
// on an edge.
func TestPublishedStepsMatchDiff(t *testing.T) {
	ctx := context.Background()
	params := nn.ArchSoftmaxMNIST.Build(simrand.New(11)).ParamVector()
	P := len(params)
	for c := 0; c < 4; c++ {
		params[c] = math.NaN()
	}
	params[4], params[5] = 0, math.Copysign(0, -1)
	s, err := Restore(Config{
		Arch: nn.ArchSoftmaxMNIST, Algorithm: learning.SSGD{}, LearningRate: 0.1, K: 2, DeltaHistory: 2,
	}, &persist.State{Arch: nn.ArchSoftmaxMNIST.String(), Version: 1, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(12)
	// push is a sparse push of n random coordinates, a quarter of them with
	// a step too small to move the parameter, plus the special ones given.
	push := func(n int, special map[int32]float64) *protocol.GradientPush {
		write := map[int32]float64{}
		for _, c := range rng.Perm(P - 6)[:n] {
			c := int32(6 + c) // 0–5 are only written as special
			if write[c] = rng.NormFloat64(); rng.Intn(4) == 0 {
				write[c] *= 1e-30
			}
		}
		maps.Copy(write, special)
		p := &protocol.GradientPush{GradientLen: P, ModelVersion: s.core.Snapshot().Version, ModelEpoch: s.epoch,
			BatchSize: 1, LabelCounts: []int{1}}
		for _, c := range slices.Sorted(maps.Keys(write)) {
			p.SparseIndices, p.SparseValues = append(p.SparseIndices, c), append(p.SparseValues, write[c])
		}
		return p
	}
	var abandoned, published int
	prev := s.core.Lease()
	for w := 0; w < 60; w++ {
		special := map[int32]float64{}
		if rng.Intn(2) == 0 {
			special[int32(rng.Intn(2))] = rng.NormFloat64() // onto a NaN
		}
		if rng.Intn(2) == 0 {
			special[int32(4+rng.Intn(2))] = math.Copysign(0, rng.NormFloat64())
		}
		if rng.Intn(20) == 0 {
			special[int32(6+rng.Intn(P-6))] = math.NaN() // a new NaN
		}
		n := 1 + rng.Intn(200)
		if rng.Intn(5) == 0 {
			n = P/2 + P/4 // past the bound once the steps that move nothing are taken out
		}
		for _, p := range []*protocol.GradientPush{push(n, special), push(1+rng.Intn(20), nil)} {
			if _, err := s.PushGradient(ctx, p); err != nil {
				t.Fatal(err)
			}
		}
		next := s.core.Lease()
		if next.Version != prev.Version+1 {
			t.Fatalf("window %d: published v%d after v%d", w, next.Version, prev.Version)
		}
		want, ok := compress.Diff(prev.Params(), next.Params(), P/2)
		got := next.Delta(prev.Version)
		if ok != (got != nil) {
			t.Fatalf("window %d: Diff ok=%v, published=%v", w, ok, got != nil)
		}
		if ok {
			published++
			if !sameDelta(*got, want) {
				t.Fatalf("window %d: published step differs from Diff (nnz %d vs %d)", w, len(got.Indices), len(want.Indices))
			}
			if c := slices.IndexFunc(got.Indices, func(c int32) bool { return c == 2 || c == 3 }); c >= 0 {
				t.Fatalf("window %d: published step names coordinate %d, a NaN no window writes", w, got.Indices[c])
			}
		} else {
			abandoned++
		}
		prev.Release()
		prev = next
	}
	prev.Release()
	if abandoned == 0 || published == 0 {
		t.Fatalf("%d windows published a step and %d abandoned it: a path went unexercised", published, abandoned)
	}
}

// sameDelta is field-for-field equality with NaN == NaN.
func sameDelta(a, b compress.Sparse) bool {
	return a.Len == b.Len && slices.Equal(a.Indices, b.Indices) &&
		slices.EqualFunc(a.Values, b.Values, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// deltaPull is a version-aware pull from known at s's incarnation; nil
// (after t.Error) when the call fails.
func deltaPull(t *testing.T, s *Server, known int) *protocol.TaskResponse {
	resp, err := s.RequestTask(context.Background(), &protocol.TaskRequest{
		LabelCounts: []int{1}, WantDelta: true, KnownVersion: known, KnownEpoch: s.epoch,
	})
	if err != nil || !resp.Accepted {
		t.Errorf("delta pull from v%d: %v (%+v)", known, err, resp)
		return nil
	}
	return resp
}
