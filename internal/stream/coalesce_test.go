package stream

import (
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

// TestAnnounceOverflowCoalesces: a full session queue merges its two oldest
// chained announcements into one spanning delta instead of dropping — the
// client's consecutive chain survives the backlog, just batched.
func TestAnnounceOverflowCoalesces(t *testing.T) {
	s := NewServer(nil, Options{})
	sess := &session{srv: s, annReady: make(chan struct{}, 1), done: make(chan struct{})}

	for v := 1; v <= announceBuffer; v++ {
		sess.enqueueAnnounce(annEntry{ann: chainedAnn(v)})
	}
	sess.enqueueAnnounce(annEntry{ann: chainedAnn(announceBuffer + 1)})

	sess.annMu.Lock()
	defer sess.annMu.Unlock()
	if len(sess.annQueue) != announceBuffer {
		t.Fatalf("queue depth %d after overflow, want %d", len(sess.annQueue), announceBuffer)
	}
	head := sess.annQueue[0].ann
	if head.ModelVersion != 2 || head.DeltaBase != 0 {
		t.Fatalf("head after coalesce spans %d→%d, want 0→2", head.DeltaBase, head.ModelVersion)
	}
	if head.Delta == nil || len(head.Delta.Indices) != 2 {
		t.Fatalf("coalesced head delta = %+v, want the 2-entry union", head.Delta)
	}
	if got := s.Coalesced(); got != 1 {
		t.Fatalf("Coalesced() = %d, want 1", got)
	}
	// The rest of the chain is untouched and still consecutive off the
	// coalesced head.
	prev := head.ModelVersion
	for _, entry := range sess.annQueue[1:] {
		ann := entry.ann
		if ann.DeltaBase != prev {
			t.Fatalf("chain broken after coalesce: base %d follows version %d", ann.DeltaBase, prev)
		}
		prev = ann.ModelVersion
	}
}

// TestAnnounceOverflowDropsUncomposable: when the two oldest pending
// announcements cannot merge (no delta to compose), the oldest is dropped —
// the pre-coalescing behavior, now the fallback.
func TestAnnounceOverflowDropsUncomposable(t *testing.T) {
	s := NewServer(nil, Options{})
	sess := &session{srv: s, annReady: make(chan struct{}, 1), done: make(chan struct{})}

	for v := 1; v <= announceBuffer; v++ {
		sess.enqueueAnnounce(annEntry{ann: protocol.ModelAnnounce{ModelVersion: v}}) // delta-less
	}
	sess.enqueueAnnounce(annEntry{ann: protocol.ModelAnnounce{ModelVersion: announceBuffer + 1}})

	sess.annMu.Lock()
	defer sess.annMu.Unlock()
	if len(sess.annQueue) != announceBuffer {
		t.Fatalf("queue depth %d after overflow, want %d", len(sess.annQueue), announceBuffer)
	}
	if sess.annQueue[0].ann.ModelVersion != 2 {
		t.Fatalf("head version %d, want 2 (oldest dropped)", sess.annQueue[0].ann.ModelVersion)
	}
	if got := s.Coalesced(); got != 0 {
		t.Fatalf("Coalesced() = %d, want 0 for an uncomposable pair", got)
	}
}

// TestCoalescedAnnounceChainsAtClient: a multi-version v→v+k announce (what
// overflow coalescing produces) still counts as chained on the client — the
// consecutive run survives for proactive absorb instead of resetting.
func TestCoalescedAnnounceChainsAtClient(t *testing.T) {
	ctx := context.Background()
	srv := newCore(t, server.Config{})
	ss, addr := startStream(t, srv, Options{})
	c := &Client{Addr: addr, WorkerID: 1, Subscribe: true}
	defer func() { _ = c.Close() }()
	// Establish the session (and the version-0 announce floor).
	if _, err := c.Stats(ctx); err != nil {
		t.Fatal(err)
	}

	// A coalesced jump 0→2 in one delta.
	ss.Broadcast(protocol.ModelAnnounce{
		ModelVersion: 2, DeltaBase: 0,
		Delta: &compress.Sparse{Len: 8, Indices: []int32{1}, Values: []float64{1}},
	})
	wctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := c.WaitAnnounced(wctx, 0, 2); err != nil {
		t.Fatalf("coalesced announce never arrived: %v", err)
	}
	anns := c.TakeAnnounces()
	if len(anns) != 1 || anns[0].ModelVersion != 2 || anns[0].DeltaBase != 0 {
		t.Fatalf("chain after coalesced announce: %+v (must not reset)", anns)
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
