package worker

import (
	"context"
	"testing"

	"fleet/internal/data"
	"fleet/internal/nn"
	"fleet/internal/server"
	"fleet/internal/simrand"
)

// TestSplitPhasesMatchStep verifies Pull → Compute → Push is exactly one
// Step: same counters, same ack shape, and interleaving-safe.
func TestSplitPhasesMatchStep(t *testing.T) {
	ctx := context.Background()
	ds := data.TinyMNIST(5, 16, 4)
	srv := newServer(t, server.Config{})
	workers := newWorkers(t, 2, ds)
	w := workers[0]

	resp, err := w.Pull(ctx, srv)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Accepted {
		t.Fatal("default server rejected a pull")
	}
	prep := w.Compute(resp)
	if prep.Push == nil || len(prep.Push.Gradient) == 0 {
		t.Fatalf("prepared push = %+v", prep.Push)
	}
	if prep.Exec.LatencySec <= 0 {
		t.Fatalf("device exec latency = %v", prep.Exec.LatencySec)
	}
	// Another worker pushes in between: the first worker's prepared
	// gradient becomes stale, exactly what the split phases exist for.
	if _, err := workers[1].Step(ctx, srv); err != nil {
		t.Fatal(err)
	}
	ack, err := w.Push(ctx, srv, prep.Push)
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Applied || ack.Staleness != 1 {
		t.Fatalf("ack = %+v, want applied with staleness 1", ack)
	}
	if w.Tasks != 1 {
		t.Fatalf("Tasks = %d", w.Tasks)
	}
}

func TestGradientTransformApplied(t *testing.T) {
	ctx := context.Background()
	ds := data.TinyMNIST(5, 8, 2)
	srv := newServer(t, server.Config{})
	w, err := New(Config{
		ID:    1,
		Arch:  nn.ArchSoftmaxMNIST,
		Local: ds.Train[:20],
		Rng:   simrand.New(3),
		GradientTransform: func(g []float64) {
			for i := range g {
				g[i] = 42
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := w.Pull(ctx, srv)
	if err != nil || !resp.Accepted {
		t.Fatalf("pull: %v %+v", err, resp)
	}
	prep := w.Compute(resp)
	for _, v := range prep.Push.Gradient {
		if v != 42 {
			t.Fatalf("transform not applied: %v", v)
		}
	}
}

func TestFullPullOnlyNeverRequestsDeltas(t *testing.T) {
	ctx := context.Background()
	ds := data.TinyMNIST(5, 8, 2)
	srv := newServer(t, server.Config{})
	w, err := New(Config{
		ID: 1, Arch: nn.ArchSoftmaxMNIST, Local: ds.Train[:20],
		Rng: simrand.New(3), FullPullOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := w.Step(ctx, srv); err != nil {
			t.Fatal(err)
		}
	}
	if w.DeltaPulls != 0 {
		t.Fatalf("FullPullOnly worker recorded %d delta pulls", w.DeltaPulls)
	}
}

func TestResetModelCacheForcesFullPull(t *testing.T) {
	ctx := context.Background()
	ds := data.TinyMNIST(5, 8, 2)
	srv := newServer(t, server.Config{})
	// Top-k uplink keeps model updates sparse, so delta pulls stay viable.
	w, err := New(Config{ID: 1, Arch: nn.ArchSoftmaxMNIST, Local: ds.Train[:20], Rng: simrand.New(3), Compress: "topk(8)"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(ctx, srv); err != nil { // seeds the cache
		t.Fatal(err)
	}
	if _, err := w.Step(ctx, srv); err != nil { // delta-eligible round
		t.Fatal(err)
	}
	deltasBefore := w.DeltaPulls
	if deltasBefore == 0 {
		t.Fatal("second pull should have been a delta")
	}
	w.ResetModelCache()
	resp, err := w.Pull(ctx, srv)
	if err != nil || !resp.Accepted {
		t.Fatalf("pull after reset: %v %+v", err, resp)
	}
	if w.DeltaPulls != deltasBefore {
		t.Fatal("pull after ResetModelCache was served as a delta")
	}
	if resp.ParamsDelta != nil {
		t.Fatal("server answered a reset worker with a delta")
	}
}
