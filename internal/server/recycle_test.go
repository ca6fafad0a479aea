package server

import (
	"context"
	"math"
	"runtime"
	"sort"
	"testing"

	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/persist"
	"fleet/internal/protocol"
	"fleet/internal/service"
	"fleet/internal/simrand"
)

// TestDelayedCheckpointIsTheWindowItCaptured: a checkpoint captured at
// window v whose draining push only writes it DeltaHistory + 2 windows later —
// when v's storage would have been back in use — still writes v's
// parameters: the cut's lease keeps them until the file is written.
func TestDelayedCheckpointIsTheWindowItCaptured(t *testing.T) {
	dir := t.TempDir()
	ckpt, err := persist.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	const depth = 2
	s := newTestServer(t, Config{Checkpointer: ckpt, DeltaHistory: depth})
	pushN(t, s, depth+3) // buffers are cycling
	snap, tally := s.core.Cut()
	st := s.captureState(snap, tally)
	want, v := s.Model()
	pushN(t, s, 3*(depth+2))
	s.saveState(st, snap) // the descheduled push finally writes
	got, _, err := persist.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != v || len(got.Params) != len(want) {
		t.Fatalf("loaded v%d with %d params, captured v%d with %d", got.Version, len(got.Params), v, len(want))
	}
	for i := range want {
		if math.Float64bits(got.Params[i]) != math.Float64bits(want[i]) {
			t.Fatalf("checkpoint of v%d written %d windows later differs at %d: its storage was recycled under it", v, 3*(depth+2), i)
		}
	}
}

// sparsePool is 16 topk(1%) pushes for s, as bench/perf's sparse workloads
// send them.
func sparsePool(s *Server) []*protocol.GradientPush {
	rng := simrand.New(1)
	k := s.paramCount / 100
	pool := make([]*protocol.GradientPush, 16)
	for p := range pool {
		picked := rng.Perm(s.paramCount)[:k]
		sort.Ints(picked)
		idx, vals := make([]int32, k), make([]float64, k)
		for i, c := range picked {
			idx[i], vals[i] = int32(c), rng.NormFloat64()*1e-3
		}
		pool[p] = &protocol.GradientPush{
			GradientLen: s.paramCount, SparseIndices: idx, SparseValues: vals,
			BatchSize: 10, LabelCounts: make([]int, s.classes),
		}
	}
	return pool
}

// TestSteadyStateWindowAllocatesNoModel is the allocation guard of the
// recycled snapshots: once warm, a cifar100 window of sparse pushes followed
// by a cold full pull allocates less than one model when the pull goes
// through a leasing endpoint (the snapshot's storage comes back), and one
// model and no more when the puller is an in-process caller that keeps what
// it was served (every snapshot escapes and is the garbage collector's, as
// before there was anything to recycle).
func TestSteadyStateWindowAllocatesNoModel(t *testing.T) {
	ctx := context.Background()
	const windows = 64
	perWindow := func(pull func(*Server)) float64 {
		s := newTestServer(t, Config{K: 4, Arch: nn.ArchCIFAR100, Algorithm: learning.SSGD{}})
		pool := sparsePool(s)
		window := func(w int) {
			for i := 0; i < 4; i++ {
				g := pool[(4*w+i)%len(pool)]
				g.ModelVersion = s.core.Snapshot().Version
				if _, err := s.PushGradient(ctx, g); err != nil {
					t.Fatal(err)
				}
			}
			pull(s)
		}
		for w := 0; w < 16; w++ {
			window(w)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for w := 0; w < windows; w++ {
			window(w)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(windows) / float64(8*s.paramCount)
	}
	req := &protocol.TaskRequest{LabelCounts: make([]int, 100)}
	leased := perWindow(func(s *Server) {
		lease := &service.Lease{Context: ctx}
		defer lease.Release() // after the endpoint has encoded the reply
		if resp, err := s.RequestTask(lease, req); err != nil || resp.ParamsDelta != nil || len(resp.Params) == 0 {
			t.Fatalf("pull: %v", err)
		}
	})
	kept := perWindow(func(s *Server) {
		if resp, err := s.RequestTask(ctx, req); err != nil || resp.ParamsDelta != nil || len(resp.Params) == 0 {
			t.Fatalf("pull: %v", err)
		}
	})
	t.Logf("models allocated per window: %.3f behind a leasing endpoint, %.3f behind an in-process puller", leased, kept)
	if leased >= 1 {
		t.Errorf("a window behind a leasing endpoint allocates %.2f models, want less than one", leased)
	}
	if kept < 1 || kept > 1.25 {
		t.Errorf("a window behind an in-process puller allocates %.2f models, want one and no more", kept)
	}
}
