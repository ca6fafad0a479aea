package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"fleet/internal/ingest"
	"fleet/internal/iprof"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/persist"
	"fleet/internal/pipeline"
	"fleet/internal/protocol"
	"fleet/internal/simrand"
)

// pushN drives n valid gradient pushes against the current model version.
func pushN(t *testing.T, s *Server, n int) {
	t.Helper()
	ctx := context.Background()
	params, _ := s.Model()
	for i := 0; i < n; i++ {
		_, v := s.Model()
		grad := make([]float64, len(params))
		grad[i%len(grad)] = 0.5
		if _, err := s.PushGradient(ctx, &protocol.GradientPush{
			WorkerID: i, ModelVersion: v, Gradient: grad, BatchSize: 10, LabelCounts: []int{i % 2, 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func truncate(t *testing.T, path string, n int64) {
	t.Helper()
	if err := os.Truncate(path, n); err != nil {
		t.Fatal(err)
	}
}

func testIProf(t *testing.T) *iprof.IProf {
	t.Helper()
	obs := []iprof.Observation{
		{DeviceModel: "a", Features: []float64{1, 2}, Alpha: 0.02},
		{DeviceModel: "a", Features: []float64{1, 3}, Alpha: 0.03},
		{DeviceModel: "b", Features: []float64{2, 2}, Alpha: 0.05},
	}
	p, err := iprof.New(iprof.Config{Epsilon: 1e-3}, obs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCheckpointRestoreRoundTrip trains a server, checkpoints explicitly,
// and asserts a Restore-booted server is indistinguishable where it must
// be: params bit-for-bit, version, counters, AdaSGD history, LD_global and
// the profiler state.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ckpt, err := persist.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	algo := learning.NewAdaSGD(learning.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 2})
	prof := testIProf(t)
	cfg := Config{
		Arch: nn.ArchSoftmaxMNIST, Algorithm: algo, LearningRate: 0.1,
		TimeProfiler: prof, Checkpointer: ckpt,
	}
	s := newTestServer(t, cfg)
	pushN(t, s, 6)
	prof.Observe(iprof.Observation{DeviceModel: "c", Features: []float64{3, 1}, Alpha: 0.04})
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	wantParams, wantVersion := s.Model()
	wantStats, _ := s.Stats(context.Background())

	algo2 := learning.NewAdaSGD(learning.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 2})
	prof2 := testIProf(t)
	cfg2 := Config{
		Arch: nn.ArchSoftmaxMNIST, Algorithm: algo2, LearningRate: 0.1,
		TimeProfiler: prof2, Checkpointer: ckpt, Seed: 999, // seed must not matter: params come from the checkpoint
		BootEpoch: 1,
	}
	st, _, err := persist.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(cfg2, st)
	if err != nil {
		t.Fatal(err)
	}
	gotParams, gotVersion := r.Model()
	if gotVersion != wantVersion {
		t.Fatalf("restored version %d, want %d", gotVersion, wantVersion)
	}
	if r.RestoredVersion() != wantVersion {
		t.Fatalf("RestoredVersion = %d, want %d", r.RestoredVersion(), wantVersion)
	}
	for i := range wantParams {
		if gotParams[i] != wantParams[i] {
			t.Fatalf("param %d differs: %v vs %v", i, gotParams[i], wantParams[i])
		}
	}
	gotStats, _ := r.Stats(context.Background())
	if gotStats.GradientsIn != wantStats.GradientsIn || gotStats.MeanStaleness != wantStats.MeanStaleness {
		t.Fatalf("counters: %+v vs %+v", gotStats, wantStats)
	}
	if gotStats.TasksServed != wantStats.TasksServed {
		t.Fatalf("tasks served %d, want %d", gotStats.TasksServed, wantStats.TasksServed)
	}
	if a, b := algo2.ExportState(), algo.ExportState(); a.Seen != b.Seen || len(a.Staleness.Values) != len(b.Staleness.Values) {
		t.Fatalf("AdaSGD state: %+v vs %+v", a, b)
	}
	if got, want := prof2.PredictAlpha("c", []float64{3, 1}), prof.PredictAlpha("c", []float64{3, 1}); got != want {
		t.Fatalf("profiler prediction %v, want %v (personalized model lost)", got, want)
	}
	// The delta history is intentionally dropped: a version-aware pull
	// against the restored server falls back to a full download.
	resp, err := r.RequestTask(context.Background(), &protocol.TaskRequest{
		WorkerID: 1, LabelCounts: []int{1, 1}, KnownVersion: wantVersion - 1, WantDelta: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ParamsDelta != nil || len(resp.Params) == 0 {
		t.Fatalf("restored server served a delta from a history it cannot have: %+v", resp)
	}
}

// TestPeriodicCheckpointCadence: with CheckpointEvery=2 and K=1, every
// second push writes a checkpoint, without the pusher seeing errors, and
// returns its ack only once that version is the latest checkpoint on disk:
// there is no barrier and no writer to wait for.
func TestPeriodicCheckpointCadence(t *testing.T) {
	dir := t.TempDir()
	ckpt, err := persist.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	const every = 2
	s := newTestServer(t, Config{Checkpointer: ckpt, CheckpointEvery: every})
	for i := 0; i < 6; i++ {
		pushN(t, s, 1)
		_, v := s.Model()
		st, _, err := persist.LoadLatest(dir)
		if v < every {
			if !errors.Is(err, persist.ErrNoCheckpoint) {
				t.Fatalf("after v%d: %v, want no checkpoint yet", v, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("after v%d: %v", v, err)
		}
		if want := v - v%every; st.Version != want {
			t.Fatalf("ack of v%d returned with v%d the latest checkpoint, want v%d", v, st.Version, want)
		}
	}
	stats, _ := s.Stats(context.Background())
	if stats.Checkpoints != 3 {
		t.Fatalf("6 pushes at every=2: %d checkpoints, want 3", stats.Checkpoints)
	}
	if stats.CheckpointErrors != 0 {
		t.Fatalf("checkpoint errors: %d", stats.CheckpointErrors)
	}
}

// TestConcurrentPeriodicCheckpoints: draining pushes on several goroutines
// each write the checkpoint their window scheduled. However the writes
// interleave, none fails and the latest file is the final version — a
// write that lost the race to a newer one is skipped, not made the newest.
func TestConcurrentPeriodicCheckpoints(t *testing.T) {
	dir := t.TempDir()
	ckpt, err := persist.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Checkpointer: ckpt, CheckpointEvery: 1})
	params, _ := s.Model()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			grad := make([]float64, len(params))
			grad[w] = 0.5
			for i := 0; i < 5; i++ {
				_, v := s.Model()
				if _, err := s.PushGradient(context.Background(), &protocol.GradientPush{
					WorkerID: w, ModelVersion: v, Gradient: grad, BatchSize: 10, LabelCounts: []int{1, 1},
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	_, final := s.Model()
	st, _, err := persist.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != final {
		t.Fatalf("latest checkpoint at v%d, final version v%d", st.Version, final)
	}
	stats, _ := s.Stats(context.Background())
	if stats.CheckpointErrors != 0 || stats.Checkpoints < 1 || stats.Checkpoints > final {
		t.Fatalf("%d checkpoints, %d errors over %d windows", stats.Checkpoints, stats.CheckpointErrors, final)
	}
}

// TestRestoreValidation is the corruption matrix at the server boundary:
// empty dir, truncated file, param-count mismatch, wrong architecture —
// every one a structured error, never a panic or a silent fresh boot.
func TestRestoreValidation(t *testing.T) {
	cfg := func() Config {
		return Config{
			Arch:         nn.ArchSoftmaxMNIST,
			Algorithm:    learning.NewAdaSGD(learning.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 2}),
			LearningRate: 0.1,
			BootEpoch:    1, // not the states' epoch 0: each case fails on its own check
		}
	}

	t.Run("empty dir", func(t *testing.T) {
		if _, _, err := persist.LoadLatest(t.TempDir()); !errors.Is(err, persist.ErrNoCheckpoint) {
			t.Fatalf("err = %v, want ErrNoCheckpoint", err)
		}
	})

	t.Run("nil state", func(t *testing.T) {
		if _, err := Restore(cfg(), nil); !protocol.IsCode(err, protocol.CodeInvalidArgument) {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("param count mismatch", func(t *testing.T) {
		_, err := Restore(cfg(), &persist.State{Arch: "softmax-mnist", Version: 3, Params: []float64{1, 2, 3}})
		if !protocol.IsCode(err, protocol.CodeInvalidArgument) {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("wrong architecture", func(t *testing.T) {
		n := nn.ArchSoftmaxMNIST.Build(simrand.New(1)).ParamCount()
		_, err := Restore(cfg(), &persist.State{Arch: "tiny-mnist", Version: 3, Params: make([]float64, n)})
		if !protocol.IsCode(err, protocol.CodeInvalidArgument) {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("negative version", func(t *testing.T) {
		n := nn.ArchSoftmaxMNIST.Build(simrand.New(1)).ParamCount()
		_, err := Restore(cfg(), &persist.State{Arch: "softmax-mnist", Version: -1, Params: make([]float64, n)})
		if !protocol.IsCode(err, protocol.CodeInvalidArgument) {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("truncated checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		ckpt, _ := persist.NewCheckpointer(dir, 0)
		s := newTestServer(t, Config{Checkpointer: ckpt})
		pushN(t, s, 1)
		path, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		truncate(t, path, 20)
		var ce *persist.CorruptError
		if _, _, err := persist.LoadLatest(dir); !errors.As(err, &ce) {
			t.Fatalf("err = %v, want *persist.CorruptError", err)
		}
	})

	t.Run("label class mismatch", func(t *testing.T) {
		n := nn.ArchSoftmaxMNIST.Build(simrand.New(1)).ParamCount()
		_, err := Restore(cfg(), &persist.State{
			Arch: "softmax-mnist", Version: 1, Params: make([]float64, n),
			Labels: &learning.LabelState{Counts: []float64{1, 2, 3}, Total: 6}, // arch has 10 classes
		})
		if !protocol.IsCode(err, protocol.CodeInvalidArgument) {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("boot epoch of the checkpoint", func(t *testing.T) {
		n := nn.ArchSoftmaxMNIST.Build(simrand.New(1)).ParamCount()
		for _, tc := range []struct{ boot, ckpt int64 }{{7, 7}, {0, 0}, {-3, 0}} {
			c := cfg()
			c.BootEpoch = tc.boot
			_, err := Restore(c, &persist.State{Arch: "softmax-mnist", Epoch: tc.ckpt, Version: 1, Params: make([]float64, n)})
			if !protocol.IsCode(err, protocol.CodeInvalidArgument) {
				t.Errorf("BootEpoch %d over a checkpoint of epoch %d: err = %v, want invalid_argument", tc.boot, tc.ckpt, err)
			}
		}
		c := cfg()
		c.BootEpoch = 7
		s, err := Restore(c, &persist.State{Arch: "softmax-mnist", Epoch: 3, Version: 1, Params: make([]float64, n)})
		if err != nil || s.Epoch() != 7 {
			t.Fatalf("restore at BootEpoch 7 over epoch 3 = (%v, %v), want epoch 7", s, err)
		}
	})
}

// errorDrainAgg fails every Drain: the poisoned-window scenario.
type errorDrainAgg struct{ drains int }

func (a *errorDrainAgg) Name() string           { return "error-drain" }
func (a *errorDrainAgg) Add(*pipeline.Gradient) {}
func (a *errorDrainAgg) Drain(func(direction []float64, touched []int32)) error {
	a.drains++
	return fmt.Errorf("window is poisoned")
}

// TestDrainErrorStillAcks is the drain-error semantics fix: the gradient of
// a push that completes a failing window was already counted and windowed,
// so the pusher must get its ack (retrying would double-contribute); the
// failure surfaces only through Stats.DrainErrors.
func TestDrainErrorStillAcks(t *testing.T) {
	agg := &errorDrainAgg{}
	pipe, err := pipeline.New(agg)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Pipeline: pipe})
	params, v := s.Model()
	grad := make([]float64, len(params))
	grad[0] = 1
	ack, err := s.PushGradient(context.Background(), &protocol.GradientPush{
		WorkerID: 1, ModelVersion: v, Gradient: grad, BatchSize: 10, LabelCounts: []int{1, 1},
	})
	if err != nil {
		t.Fatalf("poisoned-window push returned a (retriable-looking) error: %v", err)
	}
	if !ack.Applied || ack.NewVersion != v+1 {
		t.Fatalf("ack = %+v: the clock must advance past a poisoned window", ack)
	}
	stats, _ := s.Stats(context.Background())
	if stats.DrainErrors != 1 || agg.drains != 1 {
		t.Fatalf("drain errors = %d (drains %d), want 1", stats.DrainErrors, agg.drains)
	}
	if stats.GradientsIn != 1 {
		t.Fatalf("gradients in = %d: the acked gradient must stay counted", stats.GradientsIn)
	}
	// The next window fails too; the server keeps serving.
	ack2, err := s.PushGradient(context.Background(), &protocol.GradientPush{
		WorkerID: 2, ModelVersion: ack.NewVersion, Gradient: grad, BatchSize: 10, LabelCounts: []int{1, 1},
	})
	if err != nil || ack2.NewVersion != v+2 {
		t.Fatalf("second push: ack=%+v err=%v", ack2, err)
	}
	stats, _ = s.Stats(context.Background())
	if stats.DrainErrors != 2 {
		t.Fatalf("drain errors = %d, want 2", stats.DrainErrors)
	}
}

// TestStaleCheckpointWriteSkipped: a draining push holding an older captured
// core (descheduled between capture and write while a newer one
// checkpointed) must not clobber recency — persist keys "latest" on a monotonic sequence
// number, so writing the stale core would roll a future restore backwards.
func TestStaleCheckpointWriteSkipped(t *testing.T) {
	dir := t.TempDir()
	ckpt, err := persist.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Checkpointer: ckpt})
	pushN(t, s, 5)
	if _, err := s.Checkpoint(); err != nil { // version 5 durable
		t.Fatal(err)
	}
	// The push that drained an earlier window finally writes.
	held := s.core.Lease()
	stale := s.captureState(held, ingest.Tally{})
	stale.Version = 1
	s.saveState(stale, held)
	st, _, err := persist.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 5 {
		t.Fatalf("stale write became the latest checkpoint: restored version %d, want 5", st.Version)
	}
	stats, _ := s.Stats(context.Background())
	if stats.Checkpoints != 1 {
		t.Fatalf("stale write counted as a checkpoint: %d", stats.Checkpoints)
	}
}

// BenchmarkCheckpoint is Server.Checkpoint (capture, encode, fsync, prune)
// at the smallest and the largest model bench/perf serves: what the push
// that closes every CheckpointEvery-th window pays before its ack returns.
func BenchmarkCheckpoint(b *testing.B) {
	for _, arch := range []nn.Arch{nn.ArchTinyMNIST, nn.ArchCIFAR100} {
		b.Run(arch.String(), func(b *testing.B) {
			ckpt, err := persist.NewCheckpointer(b.TempDir(), 2)
			if err != nil {
				b.Fatal(err)
			}
			s := newTestServer(b, Config{Arch: arch, Checkpointer: ckpt})
			var path string
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if path, err = s.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			fi, err := os.Stat(path)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(fi.Size()), "file-B")
		})
	}
}
