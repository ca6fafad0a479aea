package worker

import (
	"context"
	"testing"

	"fleet/internal/compress"
	"fleet/internal/data"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/persist"
	"fleet/internal/protocol"
	"fleet/internal/server"
	"fleet/internal/service"
	"fleet/internal/simrand"
)

// TestResyncAfterServerRestart is the end-to-end wedge scenario with real
// servers: a worker pulls from a server at a high version, the server hard-
// dies and is restored from an older checkpoint, and the worker's in-flight
// push lands on the restored instance. Pre-resync, that push was terminally
// rejected and the worker stayed wedged forever; now it drops its cache,
// re-pulls full, and the next round commits.
func TestResyncAfterServerRestart(t *testing.T) {
	ctx := context.Background()
	ds := data.TinyMNIST(1, 6, 2)
	dir := t.TempDir()
	ckpt, err := persist.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}

	mkCfg := func() server.Config {
		return server.Config{
			Arch:         nn.ArchSoftmaxMNIST,
			Algorithm:    learning.NewAdaSGD(learning.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 5}),
			LearningRate: 0.3, DefaultBatchSize: 8, Checkpointer: ckpt,
		}
	}
	a := newServer(t, mkCfg())
	w, err := New(Config{ID: 1, Arch: nn.ArchSoftmaxMNIST, Local: ds.Train, Rng: simrand.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	// Advance the server to version 2, checkpoint, then advance further so
	// the checkpoint is strictly older than what the worker holds.
	for i := 0; i < 2; i++ {
		if _, err := w.Step(ctx, a); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(ctx, a); err != nil {
		t.Fatal(err)
	}

	// The worker pulls at version 3, computes… and the server dies hard.
	resp, err := w.Pull(ctx, a)
	if err != nil || !resp.Accepted {
		t.Fatalf("pull: %v %+v", err, resp)
	}
	prep := w.Compute(resp)

	b, err := server.RestoreLatest(mkCfg(), dir) // restored at version 2
	if err != nil {
		t.Fatal(err)
	}
	if b.RestoredVersion() != 2 {
		t.Fatalf("restored at version %d, want 2", b.RestoredVersion())
	}

	// The in-flight push claims version 3 — "from the future" of the
	// restored clock. It must come back as a version conflict that drops
	// the cache and counts the resync.
	if _, err := w.Push(ctx, b, prep.Push); !protocol.IsCode(err, protocol.CodeVersionConflict) {
		t.Fatalf("push after restart: %v, want version_conflict", err)
	}
	if w.Resyncs != 1 {
		t.Fatalf("Resyncs = %d, want 1", w.Resyncs)
	}

	// The next round self-heals without operator action: the pull must be
	// a full download (no delta request against a cache we dropped), and
	// the push must commit.
	tasksBefore := w.Tasks
	resp, err = w.Pull(ctx, b)
	if err != nil || !resp.Accepted {
		t.Fatalf("recovery pull: %v %+v", err, resp)
	}
	if resp.ParamsDelta != nil || len(resp.Params) == 0 {
		t.Fatalf("recovery pull served a delta: %+v", resp)
	}
	if _, err := w.Push(ctx, b, w.Compute(resp).Push); err != nil {
		t.Fatalf("recovery push: %v", err)
	}
	if w.Tasks != tasksBefore+1 {
		t.Fatalf("recovery round did not commit: tasks %d", w.Tasks)
	}
}

// conflictingService rejects the first `conflicts` pushes as
// version_conflict, then delegates — the shape of a server restart
// happening between a worker's pull and push, repeatedly.
type conflictingService struct {
	service.Service
	conflicts int
}

func (c *conflictingService) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	if c.conflicts > 0 {
		c.conflicts--
		return nil, protocol.Errorf(protocol.CodeVersionConflict,
			"server: gradient from future model version %d", push.ModelVersion)
	}
	return c.Service.PushGradient(ctx, push)
}

// TestStepResyncsWithinBound: Step absorbs conflicts up to MaxResyncs and
// completes the round; one conflict past the bound surfaces the error.
func TestStepResyncsWithinBound(t *testing.T) {
	ctx := context.Background()
	ds := data.TinyMNIST(1, 6, 2)

	w, err := New(Config{ID: 1, Arch: nn.ArchSoftmaxMNIST, Local: ds.Train, Rng: simrand.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	svc := &conflictingService{Service: newServer(t, server.Config{}), conflicts: MaxResyncs}
	ack, err := w.Step(ctx, svc)
	if err != nil {
		t.Fatalf("step with %d conflicts at MaxResyncs=%d: %v", MaxResyncs, MaxResyncs, err)
	}
	if !ack.Applied || w.Resyncs != MaxResyncs || w.Tasks != 1 {
		t.Fatalf("ack=%+v resyncs=%d tasks=%d", ack, w.Resyncs, w.Tasks)
	}

	// Past the bound: the conflict must surface, not loop forever.
	w2, err := New(Config{ID: 2, Arch: nn.ArchSoftmaxMNIST, Local: ds.Train, Rng: simrand.New(4)})
	if err != nil {
		t.Fatal(err)
	}
	svc2 := &conflictingService{Service: newServer(t, server.Config{}), conflicts: MaxResyncs + 1}
	if _, err := w2.Step(ctx, svc2); !protocol.IsCode(err, protocol.CodeVersionConflict) {
		t.Fatalf("step past resync bound: %v, want version_conflict", err)
	}
	if w2.Resyncs != MaxResyncs+1 { // the initial push + MaxResyncs allowed retries
		t.Fatalf("resyncs = %d, want %d", w2.Resyncs, MaxResyncs+1)
	}
}

// faultyDeltaService serves a valid full pull, then a delta that
// contradicts the worker's cache (wrong base), then valid full pulls — the
// absorb-failure wedge: before the fix the worker kept `cached` set after
// the absorb error and re-requested deltas against suspect state forever.
type faultyDeltaService struct {
	service.Service
	calls    int
	requests []protocol.TaskRequest
}

func (f *faultyDeltaService) RequestTask(ctx context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	f.requests = append(f.requests, *req)
	f.calls++
	if f.calls == 2 {
		return &protocol.TaskResponse{
			Accepted: true, ModelVersion: req.KnownVersion + 1, BatchSize: 4,
			ParamsDelta: &compress.Sparse{Len: 1}, DeltaBase: req.KnownVersion + 99, // contradicts the cache
		}, nil
	}
	return f.Service.RequestTask(ctx, req)
}

func TestAbsorbFailureInvalidatesCache(t *testing.T) {
	ctx := context.Background()
	ds := data.TinyMNIST(1, 6, 2)
	srv := newServer(t, server.Config{})
	f := &faultyDeltaService{Service: srv}
	w, err := New(Config{ID: 1, Arch: nn.ArchSoftmaxMNIST, Local: ds.Train, Rng: simrand.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	// Round 1: clean full pull, cache primed.
	if _, err := w.Step(ctx, f); err != nil {
		t.Fatal(err)
	}
	// Round 2: the poisoned delta must error the pull…
	if _, err := w.Pull(ctx, f); err == nil {
		t.Fatal("poisoned delta absorbed without error")
	}
	// …and round 3 must self-heal with a full request (no WantDelta), not
	// re-request deltas against the suspect cache.
	if _, err := w.Step(ctx, f); err != nil {
		t.Fatalf("post-fault round: %v", err)
	}
	last := f.requests[len(f.requests)-1]
	if last.WantDelta {
		t.Fatalf("post-fault pull still requested a delta: %+v", last)
	}
	if w.Tasks != 2 {
		t.Fatalf("tasks = %d, want 2", w.Tasks)
	}
}
