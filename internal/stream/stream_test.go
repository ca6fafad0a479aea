package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fleet/internal/data"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/persist"
	"fleet/internal/protocol"
	"fleet/internal/server"
	"fleet/internal/service"
	"fleet/internal/simrand"
	"fleet/internal/worker"
)

func newCore(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	if cfg.Arch == 0 {
		cfg.Arch = nn.ArchSoftmaxMNIST
	}
	if cfg.Algorithm == nil {
		cfg.Algorithm = learning.NewAdaSGD(learning.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 5})
	}
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 0.3
	}
	if cfg.DefaultBatchSize == 0 {
		cfg.DefaultBatchSize = 8
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// startStream serves svc over a fresh stream listener and returns the
// server plus its dial address. Shutdown runs at test cleanup.
func startStream(t *testing.T, svc service.Service, opts Options) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss := NewServer(svc, opts)
	go func() { _ = ss.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = ss.Shutdown(ctx)
	})
	return ss, ln.Addr().String()
}

func newTestWorker(t *testing.T, id int) *worker.Worker {
	t.Helper()
	ds := data.TinyMNIST(1, 6, 2)
	w, err := worker.New(worker.Config{ID: id, Arch: nn.ArchSoftmaxMNIST, Local: ds.Train, Rng: simrand.New(int64(3 + id))})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestStreamRoundTrip: the whole Figure-2 protocol — pull, push, stats —
// over one persistent session, default (flat) payloads, one dial total.
func TestStreamRoundTrip(t *testing.T) {
	ctx := context.Background()
	srv := newCore(t, server.Config{})
	_, addr := startStream(t, srv, Options{})
	c := &Client{Addr: addr, WorkerID: 1}
	defer func() { _ = c.Close() }()

	w := newTestWorker(t, 1)
	for i := 0; i < 3; i++ {
		ack, err := w.Step(ctx, c)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !ack.Applied {
			t.Fatalf("step %d not applied: %+v", i, ack)
		}
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ModelVersion != 3 || stats.GradientsIn != 3 {
		t.Fatalf("stats after 3 rounds: %+v", stats)
	}
	if got := c.Dials(); got != 1 {
		t.Fatalf("dials = %d, want 1 (persistent session)", got)
	}
	if c.Wire.Uplink() != 0 {
		t.Fatal("nil wire counter must stay nil-safe and zero")
	}
}

// TestStreamWireBytes: the optional counter sees every frame both ways.
func TestStreamWireBytes(t *testing.T) {
	ctx := context.Background()
	srv := newCore(t, server.Config{})
	_, addr := startStream(t, srv, Options{})
	wire := &protocol.WireCounter{}
	c := &Client{Addr: addr, WorkerID: 1, Wire: wire}
	defer func() { _ = c.Close() }()
	if _, err := newTestWorker(t, 1).Step(ctx, c); err != nil {
		t.Fatal(err)
	}
	if wire.Uplink() == 0 || wire.Downlink() == 0 {
		t.Fatalf("wire bytes not counted: up=%d down=%d", wire.Uplink(), wire.Downlink())
	}
}

// TestCodecNegotiation: a JSON session works end to end; a hello with no
// content type speaks flat; an unknown content type, the retired gob+gzip
// one included, is refused at hello with the structured code.
func TestCodecNegotiation(t *testing.T) {
	ctx := context.Background()
	srv := newCore(t, server.Config{})
	_, addr := startStream(t, srv, Options{})

	c := &Client{Addr: addr, WorkerID: 1, Codec: protocol.JSON}
	defer func() { _ = c.Close() }()
	if _, err := newTestWorker(t, 1).Step(ctx, c); err != nil {
		t.Fatalf("JSON session: %v", err)
	}

	hello := func(contentType string) net.Conn {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
		raw, _ := json.Marshal(helloPayload{WorkerID: 9, ContentType: contentType})
		if err := writeFrame(conn, frame{typ: fHello, corr: 1, payload: raw}); err != nil {
			t.Fatal(err)
		}
		return conn
	}

	// No content type: the welcome names flat and a flat task request is
	// answered in flat.
	conn := hello("")
	f, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	var welcome welcomePayload
	if f.typ != fWelcome || json.Unmarshal(f.payload, &welcome) != nil || welcome.ContentType != protocol.ContentTypeFlat {
		t.Fatalf("bare hello: got %s frame %s, want a flat welcome", f.typ, f.payload)
	}
	var req bytes.Buffer
	if err := protocol.Flat.Encode(&req, &protocol.TaskRequest{WorkerID: 9, LabelCounts: []int{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frame{typ: fTask, corr: 2, payload: req.Bytes()}); err != nil {
		t.Fatal(err)
	}
	if f, err = readFrame(conn); err != nil || f.typ != fTaskResp {
		t.Fatalf("flat task: %+v, %v", f, err)
	}
	var resp protocol.TaskResponse
	if err := protocol.Flat.Decode(bytes.NewReader(f.payload), &resp); err != nil || !resp.Accepted {
		t.Fatalf("flat task response: %+v, %v", resp, err)
	}

	// Unknown content types: the server must answer with a structured
	// unsupported_media error frame, not hang or hard-close.
	for _, ct := range []string{"application/xml", "application/x-fleet-gob+gzip"} {
		f, err := readFrame(hello(ct))
		if err != nil {
			t.Fatal(err)
		}
		if f.typ != fError {
			t.Fatalf("%s: got %s frame, want error", ct, f.typ)
		}
		if err := decodeErrorFrame(f.payload); !protocol.IsCode(err, protocol.CodeUnsupportedMedia) {
			t.Fatalf("%s: negotiation error: %v, want unsupported_media", ct, err)
		}
	}
}

// TestServerRejectsGarbage: a peer that isn't speaking the protocol gets a
// structured error frame and a prompt close — never a hang.
func TestServerRejectsGarbage(t *testing.T) {
	srv := newCore(t, server.Config{})
	_, addr := startStream(t, srv, Options{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if f.typ != fError {
		t.Fatalf("got %s frame, want error", f.typ)
	}
	if err := decodeErrorFrame(f.payload); !protocol.IsCode(err, protocol.CodeInvalidArgument) {
		t.Fatalf("garbage error: %v, want invalid_argument", err)
	}
	// And the server hangs up: the next read hits EOF, not a stall.
	if _, err := readFrame(conn); err == nil {
		t.Fatal("server kept a desynchronized session open")
	}
}

// TestMalformedPayloadKeepsSession: an undecodable payload inside an intact
// frame fails only that request — the session survives and serves the next.
func TestMalformedPayloadKeepsSession(t *testing.T) {
	srv := newCore(t, server.Config{})
	_, addr := startStream(t, srv, Options{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	hello, _ := json.Marshal(helloPayload{WorkerID: 9})
	if err := writeFrame(conn, frame{typ: fHello, corr: 1, payload: hello}); err != nil {
		t.Fatal(err)
	}
	if f, err := readFrame(conn); err != nil || f.typ != fWelcome {
		t.Fatalf("welcome: %+v, %v", f, err)
	}
	if err := writeFrame(conn, frame{typ: fTask, corr: 2, payload: []byte("not flat")}); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if f.typ != fError || f.corr != 2 {
		t.Fatalf("got %s/corr=%d, want error/corr=2", f.typ, f.corr)
	}
	if err := decodeErrorFrame(f.payload); !protocol.IsCode(err, protocol.CodeInvalidArgument) {
		t.Fatalf("payload error: %v, want invalid_argument", err)
	}
	// The session must still serve: stats has an empty request payload.
	if err := writeFrame(conn, frame{typ: fStats, corr: 3}); err != nil {
		t.Fatal(err)
	}
	if f, err := readFrame(conn); err != nil || f.typ != fStatsResp || f.corr != 3 {
		t.Fatalf("stats after bad payload: %+v, %v", f, err)
	}
}

// TestBroadcastAnnounce: a drain publishes a snapshot, the OnSnapshot hook
// broadcasts it, a subscribed client absorbs the delta without pulling.
func TestBroadcastAnnounce(t *testing.T) {
	ctx := context.Background()
	srv := newCore(t, server.Config{K: 1, DeltaHistory: 4})
	ss, addr := startStream(t, srv, Options{})
	srv.OnSnapshot(ss.Broadcast)

	c := &Client{Addr: addr, WorkerID: 1, Subscribe: true}
	defer func() { _ = c.Close() }()
	// Top-k pushes keep each drain's delta sparse enough to announce; a
	// dense gradient rewrites most of the vector and the announce (like a
	// delta pull) degrades to version-only.
	ds := data.TinyMNIST(1, 6, 2)
	w, err := worker.New(worker.Config{
		ID: 1, Arch: nn.ArchSoftmaxMNIST, Local: ds.Train,
		Rng: simrand.New(3), Compress: "topk(32)",
	})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := w.Pull(ctx, c)
	if err != nil || !resp.Accepted {
		t.Fatalf("pull: %v %+v", err, resp)
	}
	if _, err := w.Push(ctx, c, w.Compute(resp).Push); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := c.WaitAnnounced(wctx, 0, 1); err != nil {
		t.Fatalf("announce for version 1 never arrived: %v", err)
	}
	anns := c.TakeAnnounces()
	if len(anns) != 1 || anns[0].ModelVersion != 1 || anns[0].Delta == nil || anns[0].DeltaBase != 0 {
		t.Fatalf("announce chain: %+v", anns)
	}
	if !w.AbsorbAnnounce(anns[0]) {
		t.Fatal("announce did not absorb into the cached model")
	}
	if v, _, ok := w.CachedVersion(); !ok || v != 1 {
		t.Fatalf("cached version after absorb = %d (ok=%v), want 1", v, ok)
	}
	if w.Refreshes != 1 {
		t.Fatalf("Refreshes = %d, want 1", w.Refreshes)
	}
	// The absorbed cache must be bit-exact: the next delta pull succeeds
	// against it (the server diffs against its true version-1 params).
	if _, err := w.Step(ctx, c); err != nil {
		t.Fatalf("round after absorb: %v", err)
	}
	if w.DeltaPulls == 0 {
		t.Fatal("post-absorb pull did not use the delta path")
	}
}

// TestShutdownGoAwayReconnect is the drain fix end to end at package level:
// Shutdown sends "server draining", the client fails fast (no hang on a
// dead socket) and transparently redials once a server is back.
func TestShutdownGoAwayReconnect(t *testing.T) {
	ctx := context.Background()
	srv := newCore(t, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ss := NewServer(srv, Options{})
	go func() { _ = ss.Serve(ln) }()

	c := &Client{Addr: addr, WorkerID: 1}
	defer func() { _ = c.Close() }()
	w := newTestWorker(t, 1)
	if _, err := w.Step(ctx, c); err != nil {
		t.Fatal(err)
	}

	sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := ss.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The next call must fail fast with a structured transport error —
	// the listener is gone — not wedge on the dead session.
	cctx, cancel2 := context.WithTimeout(ctx, 2*time.Second)
	defer cancel2()
	if _, err := c.Stats(cctx); !protocol.IsCode(err, protocol.CodeUnavailable) {
		t.Fatalf("call after shutdown: %v, want unavailable", err)
	}

	// A replacement server on the same address: the client reconnects on
	// its next call, no new Client needed.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ss2 := NewServer(srv, Options{})
	go func() { _ = ss2.Serve(ln2) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = ss2.Shutdown(ctx)
	}()
	if _, err := w.Step(ctx, c); err != nil {
		t.Fatalf("step after reconnect: %v", err)
	}
	if got := c.Dials(); got != 2 {
		t.Fatalf("dials = %d, want 2 (one reconnect)", got)
	}
}

// TestIdleTimeoutAndHeartbeat: a silent session is reaped by the server's
// idle timeout; a heartbeating one survives.
func TestIdleTimeoutAndHeartbeat(t *testing.T) {
	ctx := context.Background()
	srv := newCore(t, server.Config{})
	_, addr := startStream(t, srv, Options{IdleTimeout: 100 * time.Millisecond})

	silent := &Client{Addr: addr, WorkerID: 1, PingInterval: -1}
	defer func() { _ = silent.Close() }()
	if _, err := silent.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for silent.Connected() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if silent.Connected() {
		t.Fatal("idle session was never reaped")
	}

	beating := &Client{Addr: addr, WorkerID: 2, PingInterval: 25 * time.Millisecond}
	defer func() { _ = beating.Close() }()
	if _, err := beating.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	if !beating.Connected() {
		t.Fatal("heartbeating session was reaped")
	}
	if _, err := beating.Stats(ctx); err != nil {
		t.Fatalf("stats after idle-with-heartbeat: %v", err)
	}
	if got := beating.Dials(); got != 1 {
		t.Fatalf("heartbeating client dialed %d times, want 1", got)
	}
}

// TestConcurrentBroadcastPushHammer is the -race hammer: many calls
// multiplexed on ONE session while the server broadcasts announcements at
// it, exercising the corr-ID demux, the per-session write lock and the
// announce buffer concurrently.
func TestConcurrentBroadcastPushHammer(t *testing.T) {
	ctx := context.Background()
	srv := newCore(t, server.Config{K: 2, DeltaHistory: 4})
	ss, addr := startStream(t, srv, Options{})
	srv.OnSnapshot(ss.Broadcast)

	c := &Client{Addr: addr, WorkerID: 1, Subscribe: true}
	defer func() { _ = c.Close() }()
	paramCount := nn.ArchSoftmaxMNIST.Build(simrand.New(1)).ParamCount()

	const (
		goroutines = 8
		perG       = 30
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grad := make([]float64, paramCount)
			for i := 0; i < perG; i++ {
				if _, err := c.RequestTask(ctx, &protocol.TaskRequest{WorkerID: g}); err != nil {
					errs <- err
					return
				}
				grad[(g*perG+i)%paramCount] = 1e-3
				push := &protocol.GradientPush{WorkerID: g, Gradient: grad, BatchSize: 1}
				if _, err := c.PushGradient(ctx, push); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	// Extra broadcast pressure beyond the pushes' own drains.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			ss.Broadcast(protocol.ModelAnnounce{ModelVersion: 1 << 20, ServerEpoch: 99})
		}
	}()
	wg.Wait()
	<-done
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := goroutines * perG; stats.GradientsIn != want {
		t.Fatalf("gradients in = %d, want %d", stats.GradientsIn, want)
	}
	c.annMu.Lock()
	seen := c.annSeen
	c.annMu.Unlock()
	if !seen {
		t.Fatal("no announce ever observed")
	}
	if ss.Broadcasts() == 0 {
		t.Fatal("no broadcasts recorded")
	}
}

// swapSvc atomically swaps the service behind a stream server — the shape
// of a parameter-server restart behind a stable frontend address.
type swapSvc struct {
	mu  sync.Mutex
	svc service.Service
}

func (s *swapSvc) get() service.Service {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.svc
}

func (s *swapSvc) set(svc service.Service) {
	s.mu.Lock()
	s.svc = svc
	s.mu.Unlock()
}

func (s *swapSvc) RequestTask(ctx context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	return s.get().RequestTask(ctx, req)
}

func (s *swapSvc) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	return s.get().PushGradient(ctx, push)
}

func (s *swapSvc) Stats(ctx context.Context) (*protocol.Stats, error) {
	return s.get().Stats(ctx)
}

// TestResyncOverStream is PR 5's epoch-conflict resync scenario verbatim,
// but with every protocol step crossing the stream transport: the
// version_conflict must arrive as the same structured error, the worker
// must drop its cache and self-heal with a full re-pull, and the next
// round must commit — identical observable behavior to the in-process and
// HTTP transports.
func TestResyncOverStream(t *testing.T) {
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
	a, err := server.New(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	swap := &swapSvc{svc: a}
	_, addr := startStream(t, swap, Options{})
	c := &Client{Addr: addr, WorkerID: 1}
	defer func() { _ = c.Close() }()

	w, err := worker.New(worker.Config{ID: 1, Arch: nn.ArchSoftmaxMNIST, Local: ds.Train, Rng: simrand.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := w.Step(ctx, c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(ctx, c); err != nil {
		t.Fatal(err)
	}

	// Pull at version 3, compute… and the server dies hard, replaced by a
	// restore of the version-2 checkpoint behind the same address.
	resp, err := w.Pull(ctx, c)
	if err != nil || !resp.Accepted {
		t.Fatalf("pull: %v %+v", err, resp)
	}
	prep := w.Compute(resp)
	b, err := server.RestoreLatest(mkCfg(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.RestoredVersion() != 2 {
		t.Fatalf("restored at version %d, want 2", b.RestoredVersion())
	}
	swap.set(b)

	// The in-flight push crosses the stream and must come back as the
	// same structured version_conflict the in-process path returns.
	if _, err := w.Push(ctx, c, prep.Push); !protocol.IsCode(err, protocol.CodeVersionConflict) {
		t.Fatalf("push after restart: %v, want version_conflict", err)
	}
	if w.Resyncs != 1 {
		t.Fatalf("Resyncs = %d, want 1", w.Resyncs)
	}

	// Self-heal: full re-pull (no delta against the dropped cache), then
	// the round commits — all over the same persistent session.
	tasksBefore := w.Tasks
	resp, err = w.Pull(ctx, c)
	if err != nil || !resp.Accepted {
		t.Fatalf("recovery pull: %v %+v", err, resp)
	}
	if resp.ParamsDelta != nil || len(resp.Params) == 0 {
		t.Fatalf("recovery pull served a delta: %+v", resp)
	}
	if _, err := w.Push(ctx, c, w.Compute(resp).Push); err != nil {
		t.Fatalf("recovery push: %v", err)
	}
	if w.Tasks != tasksBefore+1 {
		t.Fatalf("recovery round did not commit: tasks %d", w.Tasks)
	}
	if got := c.Dials(); got != 1 {
		t.Fatalf("dials = %d, want 1 (resync must not need a reconnect)", got)
	}
}

// TestCloseFromOnAnnounceIsAnError: Close waits for the read loop, and the
// read loop runs OnAnnounce, so a Close from the callback would wait for
// itself. It closes the session, does not wait, and says so.
func TestCloseFromOnAnnounceIsAnError(t *testing.T) {
	srv := newCore(t, server.Config{K: 1})
	ss, addr := startStream(t, srv, Options{})
	srv.OnSnapshot(ss.Broadcast)
	closed := make(chan error, 1)
	var c *Client
	c = &Client{Addr: addr, WorkerID: 1, Subscribe: true, PingInterval: -1,
		OnAnnounce: func(protocol.ModelAnnounce) { closed <- c.Close() }}
	ctx := context.Background()
	if _, err := c.Stats(ctx); err != nil { // dial and subscribe
		t.Fatal(err)
	}
	c.mu.Lock()
	sess := c.sess
	c.mu.Unlock()
	w := newTestWorker(t, 2)
	if _, err := w.Step(ctx, srv); err != nil { // closes a window: one announce
		t.Fatal(err)
	}
	select {
	case err := <-closed:
		if !protocol.IsCode(err, protocol.CodeInternal) {
			t.Fatalf("Close from OnAnnounce: %v, want an internal error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close from OnAnnounce never returned")
	}
	sess.loops.Wait() // the read loop exits once the callback has returned
	if c.Connected() {
		t.Fatal("the session survived the Close")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close with no session: %v", err)
	}
}

// TestCloseDuringOnAnnounceStillWaits: a Close from another goroutine that
// lands while the read loop is inside OnAnnounce is no misuse. It keeps
// Close's contract: it returns nil, and only once the callback has returned
// and the session's loops have exited.
func TestCloseDuringOnAnnounceStillWaits(t *testing.T) {
	srv := newCore(t, server.Config{K: 1})
	ss, addr := startStream(t, srv, Options{})
	srv.OnSnapshot(ss.Broadcast)
	inCallback, letGo := make(chan struct{}), make(chan struct{})
	var returned atomic.Bool
	c := &Client{Addr: addr, WorkerID: 1, Subscribe: true, PingInterval: -1,
		OnAnnounce: func(protocol.ModelAnnounce) {
			close(inCallback)
			<-letGo
			returned.Store(true)
		}}
	ctx := context.Background()
	if _, err := c.Stats(ctx); err != nil { // dial and subscribe
		t.Fatal(err)
	}
	if _, err := newTestWorker(t, 2).Step(ctx, srv); err != nil { // closes a window: one announce
		t.Fatal(err)
	}
	<-inCallback
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while OnAnnounce was still running", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(letGo)
	select {
	case err := <-closed:
		if err != nil || !returned.Load() {
			t.Fatalf("Close: %v (callback returned: %v), want nil after the callback", err, returned.Load())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
}
