package stream

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"fleet/internal/compress"
	"fleet/internal/protocol"
	"fleet/internal/server"
	"fleet/internal/service"
)

func chainedAnn(version int) protocol.ModelAnnounce {
	return protocol.ModelAnnounce{
		ModelVersion: version,
		DeltaBase:    version - 1,
		Delta: &compress.Sparse{
			Len:     8,
			Indices: []int32{int32(version % 8)},
			Values:  []float64{float64(version)},
		},
	}
}

// TestAnnounceOverflowDropsOldest: a full session queue drops its oldest
// announce, even when the pair chains — the client sees the gap and
// catches up by pull. Every queued entry is the broadcaster's encoding,
// shared by the sessions on one codec, and a session under another tenant
// label receives none of them.
func TestAnnounceOverflowDropsOldest(t *testing.T) {
	s := NewServer(nil, Options{})
	newSession := func(tenant string) *session {
		sess := &session{srv: s, codec: protocol.Default, subscribe: true, tenant: tenant,
			annReady: make(chan struct{}, 1), done: make(chan struct{})}
		s.sessions[sess] = struct{}{}
		return sess
	}
	a, b, other := newSession(""), newSession(""), newSession("other")

	for v := 1; v <= announceBuffer+1; v++ {
		s.Broadcast(chainedAnn(v))
	}

	if got, want := s.Broadcasts(), int64(2*(announceBuffer+1)); got != want {
		t.Fatalf("Broadcasts() = %d, want %d", got, want)
	}
	if len(other.annQueue) != 0 {
		t.Fatalf("a session of another tenant queued %d announces", len(other.annQueue))
	}
	for _, sess := range []*session{a, b} {
		if len(sess.annQueue) != announceBuffer {
			t.Fatalf("queue depth %d after overflow, want %d", len(sess.annQueue), announceBuffer)
		}
	}
	for i := range a.annQueue {
		if &a.annQueue[i][0] != &b.annQueue[i][0] {
			t.Fatalf("entry %d is a per-session copy, want the broadcaster's shared bytes", i)
		}
	}
	var head protocol.ModelAnnounce
	if err := protocol.Default.Decode(bytes.NewReader(a.annQueue[0]), &head); err != nil {
		t.Fatal(err)
	}
	if head.ModelVersion != 2 || head.DeltaBase != 1 {
		t.Fatalf("head after overflow spans %d→%d, want 1→2 (oldest dropped, nothing merged)", head.DeltaBase, head.ModelVersion)
	}
}

// TestSpanningAnnounceChainsAtClient: a multi-version v→v+k announce (what
// an edge relays when its model moved several steps at once) still counts
// as chained on the client — the consecutive run survives for proactive
// absorb instead of resetting.
func TestSpanningAnnounceChainsAtClient(t *testing.T) {
	ctx := context.Background()
	srv := newCore(t, server.Config{})
	ss, addr := startStream(t, srv, Options{})
	c := &Client{Addr: addr, WorkerID: 1, Subscribe: true}
	defer func() { _ = c.Close() }()
	// Establish the session (and the version-0 announce floor).
	if _, err := c.Stats(ctx); err != nil {
		t.Fatal(err)
	}

	// A spanning jump 0→2 in one delta.
	delta, ok := compress.Diff(make([]float64, 8), []float64{0, 1, 0, 0, 0, 0, 0, 0}, 0)
	if !ok {
		t.Fatal("diff")
	}
	ss.Broadcast(protocol.ModelAnnounce{ModelVersion: 2, DeltaBase: 0, Delta: &delta})
	wctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := c.WaitAnnounced(wctx, 0, 2); err != nil {
		t.Fatalf("spanning announce never arrived: %v", err)
	}
	anns := c.TakeAnnounces()
	if len(anns) != 1 || anns[0].ModelVersion != 2 || anns[0].DeltaBase != 0 {
		t.Fatalf("chain after spanning announce: %+v (must not reset)", anns)
	}
}

// TestUntakenAnnounceRunIsBounded: a client whose owner only listens on
// OnAnnounce and never calls TakeAnnounces (an edge's upstream session)
// must not retain one delta per root version forever. The pending run stays
// within maxPendingAnnounces and still ends in a gap-free chain up to the
// latest version.
func TestUntakenAnnounceRunIsBounded(t *testing.T) {
	const total = 1500
	observed := 0
	c := &Client{OnAnnounce: func(protocol.ModelAnnounce) { observed++ }}
	c.noteFloor(0, 0)
	for v := 1; v <= total; v++ {
		c.noteAnnounce(protocol.ModelAnnounce{
			ModelVersion: v, DeltaBase: v - 1,
			Delta: &compress.Sparse{Len: 8, Indices: []int32{int32(v % 8)}, Values: []float64{float64(v)}},
		})
		if len(c.annRun) > maxPendingAnnounces || cap(c.annRun) > 2*maxPendingAnnounces {
			t.Fatalf("after %d announces the client retains %d (cap %d), want at most %d",
				v, len(c.annRun), cap(c.annRun), maxPendingAnnounces)
		}
	}
	if observed != total {
		t.Fatalf("OnAnnounce saw %d of %d announces", observed, total)
	}
	run := c.TakeAnnounces()
	if len(run) != maxPendingAnnounces || run[len(run)-1].ModelVersion != total {
		t.Fatalf("took %d announces ending at v%d, want the newest %d ending at v%d",
			len(run), run[len(run)-1].ModelVersion, maxPendingAnnounces, total)
	}
	for i := 1; i < len(run); i++ {
		if run[i].DeltaBase != run[i-1].ModelVersion {
			t.Fatalf("retained run has a gap at %d: %+v", i, run)
		}
	}
}

// blockingSvc wraps a service and parks every PushGradient until released,
// so a test can hold a push in flight at a precise point.
type blockingSvc struct {
	service.Service
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (b *blockingSvc) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return b.Service.PushGradient(ctx, push)
}

// TestGoAwayWhilePushInFlight is the drain-correctness pin: a goaway frame
// arriving while a push is still being served must not cost the worker its
// ack. Shutdown waits for the in-flight frame, the response is written on
// the draining session, and only then does the connection close — an acked
// gradient is never in doubt, and an unacked one is never silently applied.
func TestGoAwayWhilePushInFlight(t *testing.T) {
	ctx := context.Background()
	core := newCore(t, server.Config{})
	params, _ := core.Model()
	blocking := &blockingSvc{
		Service: core,
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	ss, addr := startStream(t, blocking, Options{})

	c := &Client{Addr: addr, WorkerID: 1}
	defer func() { _ = c.Close() }()
	if _, err := c.Stats(ctx); err != nil { // establish the session
		t.Fatal(err)
	}

	grad := make([]float64, len(params))
	grad[0] = 1e-3
	type result struct {
		ack *protocol.PushAck
		err error
	}
	pushDone := make(chan result, 1)
	go func() {
		ack, err := c.PushGradient(ctx, &protocol.GradientPush{
			WorkerID: 1, ModelVersion: 0, Gradient: grad, BatchSize: 1,
		})
		pushDone <- result{ack, err}
	}()
	<-blocking.entered

	shutdownDone := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- ss.Shutdown(sctx)
	}()

	// The goaway lands while the push is still parked in the service: the
	// client marks the session draining, but the pending call stays pending.
	deadline := time.Now().Add(2 * time.Second)
	for c.Connected() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if c.Connected() {
		t.Fatal("goaway never observed while the push was in flight")
	}
	select {
	case r := <-pushDone:
		t.Fatalf("push resolved before the service released it: %+v, %v", r.ack, r.err)
	default:
	}

	// Release: the ack must cross the draining session before it closes.
	close(blocking.release)
	select {
	case r := <-pushDone:
		if r.err != nil {
			t.Fatalf("in-flight push lost its ack to the drain: %v", r.err)
		}
		if !r.ack.Applied || r.ack.NewVersion != 1 {
			t.Fatalf("ack = %+v, want applied at version 1", r.ack)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ack never delivered")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful shutdown errored despite the drained push: %v", err)
	}
}
