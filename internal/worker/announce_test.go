package worker

import (
	"context"
	"math"
	"net"
	"testing"
	"time"

	"fleet/internal/compress"
	"fleet/internal/data"
	"fleet/internal/nn"
	"fleet/internal/protocol"
	"fleet/internal/server"
	"fleet/internal/simrand"
	"fleet/internal/stream"
)

// TestAbsorbSpanningAnnounce: a multi-version announce — one v→v+k delta,
// what an edge aggregator relays when its model moved several steps at
// once — absorbs exactly like a chain of single steps, as long as its base
// anchors on the cached version.
func TestAbsorbSpanningAnnounce(t *testing.T) {
	ctx := context.Background()
	ds := data.TinyMNIST(3, 8, 4)
	srv := newServer(t, server.Config{})
	w := newWorkers(t, 1, ds)[0]
	if _, err := w.Pull(ctx, srv); err != nil {
		t.Fatal(err)
	}
	ver, epoch, ok := w.CachedVersion()
	if !ok {
		t.Fatal("no cached model after pull")
	}
	target := append([]float64(nil), w.params...)
	target[0], target[1] = 0.75, -1
	spanning, ok := compress.Diff(w.params, target, 0)
	if !ok {
		t.Fatal("diff")
	}

	// The spanning jump ver→ver+2 absorbs in one step.
	if !w.AbsorbAnnounce(protocol.ModelAnnounce{
		ModelVersion: ver + 2, DeltaBase: ver, ServerEpoch: epoch, Delta: &spanning,
	}) {
		t.Fatal("anchored spanning announce did not absorb")
	}
	v, _, _ := w.CachedVersion()
	if v != ver+2 || w.Refreshes != 1 {
		t.Fatalf("cache at v%d refreshes=%d, want v%d refreshes=1", v, w.Refreshes, ver+2)
	}
	if w.params[0] != 0.75 || w.params[1] != -1 {
		t.Fatalf("spanning delta applied wrong: params[0]=%v params[1]=%v", w.params[0], w.params[1])
	}

	// A spanning jump whose base is NOT the cached version is still a gap.
	if w.AbsorbAnnounce(protocol.ModelAnnounce{
		ModelVersion: ver + 5, DeltaBase: ver + 3, ServerEpoch: epoch, Delta: &spanning,
	}) {
		t.Fatal("unanchored spanning announce absorbed")
	}
}

// TestAnnounceGapHealsByDeltaPull is the oracle of the announce contract: an
// announce is a freshness hint, and a missed one costs a delta pull, never
// the model. The stream broadcast skips version 2, as a session whose
// announce queue overflowed drops its oldest entry. The subscribed worker
// absorbs up to the gap, and its next pull names the version it holds and
// gets the delta from that base, after which its parameters equal the
// server's bit for bit.
func TestAnnounceGapHealsByDeltaPull(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv := newServer(t, server.Config{K: 1, DeltaHistory: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss := stream.NewServer(srv, stream.Options{})
	go func() { _ = ss.Serve(ln) }()
	defer func() { _ = ss.Shutdown(ctx) }()
	srv.OnSnapshot(func(ann protocol.ModelAnnounce) {
		if ann.ModelVersion != 2 {
			ss.Broadcast(ann)
		}
	})
	c := &stream.Client{Addr: ln.Addr().String(), WorkerID: 0, Subscribe: true}
	defer func() { _ = c.Close() }()

	// Top-k pushes keep each drain's delta sparse enough to announce.
	ds := data.TinyMNIST(3, 8, 4)
	var ws [2]*Worker
	for i := range ws {
		if ws[i], err = New(Config{
			ID: i, Arch: nn.ArchSoftmaxMNIST, Local: ds.Train, Rng: simrand.New(int64(200 + i)), Compress: "topk(32)",
		}); err != nil {
			t.Fatal(err)
		}
	}
	w, pusher := ws[0], ws[1]
	if _, err := w.Pull(ctx, c); err != nil {
		t.Fatal(err)
	}
	pushUntil := func(version int) {
		t.Helper()
		for _, v := srv.Model(); v < version; _, v = srv.Model() {
			if _, err := pusher.Step(ctx, srv); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.WaitAnnounced(ctx, srv.Epoch(), version); err != nil {
			t.Fatalf("announce for version %d: %v", version, err)
		}
	}
	pushUntil(1)
	w.AbsorbAnnounces(c.TakeAnnounces())
	pushUntil(3) // version 2 is not announced
	w.AbsorbAnnounces(c.TakeAnnounces())
	if v, _, _ := w.CachedVersion(); v != 1 || w.Refreshes != 1 {
		t.Fatalf("cache at v%d after %d refreshes, want v1 after 1: absorb stops at the gap", v, w.Refreshes)
	}

	resp, err := w.Pull(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ParamsDelta == nil || resp.DeltaBase != 1 || resp.ModelVersion != 3 {
		t.Fatalf("pull after the gap: delta=%v base=%d version=%d, want a 1→3 delta",
			resp.ParamsDelta != nil, resp.DeltaBase, resp.ModelVersion)
	}
	want, version := srv.Model()
	if version != 3 {
		t.Fatalf("server at v%d, want v3", version)
	}
	for i := range want {
		if math.Float64bits(w.params[i]) != math.Float64bits(want[i]) {
			t.Fatalf("param %d = %v after the delta pull, server has %v", i, w.params[i], want[i])
		}
	}
}
