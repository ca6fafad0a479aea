package stream

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/protocol"
	"fleet/internal/server"
	"fleet/internal/service"
)

// TestFullPullsRaceWindowCloses: a full pull leaves the server as a vectored
// write over the published snapshot's own storage and is decoded off the
// socket at the client, while pushes keep closing windows. Cold pulls on four
// sessions race the drains; every response must be, bit for bit, the version
// it names — never a model torn between two, and never one whose storage the
// server recycled into a later snapshot before the write returned: at depth 1
// a snapshot's storage is back in use three windows after it was published,
// and the pullers keep pulling for as long as windows close.
func TestFullPullsRaceWindowCloses(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		depth, drains, pulls int // pulls: at least this many per puller
	}{
		{"default-history", 0, 200, 16},
		{"recycling", 1, 400, 64},
	} {
		t.Run(tc.name, func(t *testing.T) { fullPullsRaceWindowCloses(t, tc.depth, tc.drains, tc.pulls) })
	}
}

func fullPullsRaceWindowCloses(t *testing.T, depth, drains, pullsEach int) {
	ctx := context.Background()
	// ArchMNIST is 94 KB of parameters: past both the encoder's split size
	// and the client's direct-decode size.
	srv := newCore(t, server.Config{Arch: nn.ArchMNIST, Algorithm: learning.SSGD{}, K: 1, LearningRate: 0.05, DeltaHistory: depth})
	_, addr := startStream(t, srv, Options{})
	boot, _ := srv.Model()
	if 8*len(boot) < directDecodeBytes {
		t.Fatalf("model of %d parameters does not reach the direct-decode path", len(boot))
	}

	const pullers = 4
	published := make([]uint64, drains+1) // hash by version; written by the pusher only
	published[0] = hashParams(boot)
	type pulled struct {
		version int
		hash    uint64
	}
	results := make([][]pulled, pullers)
	pushing := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < pullers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &Client{Addr: addr, WorkerID: 10 + p, Codec: protocol.Flat, PingInterval: -1}
			defer func() { _ = c.Close() }()
			for i := 0; ; i++ {
				if i >= pullsEach {
					select {
					case <-pushing:
						return
					default:
					}
				}
				resp, err := c.RequestTask(ctx, &protocol.TaskRequest{WorkerID: 10 + p, LabelCounts: []int{1}})
				if err != nil || !resp.Accepted || resp.ParamsDelta != nil || len(resp.Params) != len(boot) {
					t.Errorf("puller %d pull %d: %v (%+v)", p, i, err, resp)
					return
				}
				results[p] = append(results[p], pulled{resp.ModelVersion, hashParams(resp.Params)})
			}
		}()
	}
	pusher := &Client{Addr: addr, WorkerID: 1, Codec: protocol.Flat, PingInterval: -1}
	defer func() { _ = pusher.Close() }()
	for v := 1; v <= drains; v++ {
		ack, err := pusher.PushGradient(ctx, &protocol.GradientPush{
			WorkerID: 1, ModelVersion: v - 1, BatchSize: 1, LabelCounts: []int{1},
			GradientLen: len(boot), SparseIndices: []int32{int32(v % len(boot)), int32(len(boot) - 1)},
			SparseValues: []float64{float64(v), 0.5},
		})
		if err != nil || ack.NewVersion != v {
			t.Fatalf("push %d: %v (%+v)", v, err, ack)
		}
		params, _ := srv.Model()
		published[v] = hashParams(params)
	}
	close(pushing)
	wg.Wait()
	seen, pulls := map[int]bool{}, 0
	for _, rs := range results {
		for _, r := range rs {
			if r.hash != published[r.version] {
				t.Fatalf("pull of v%d differs from the published version", r.version)
			}
			seen[r.version] = true
			pulls++
		}
	}
	if len(seen) < 2 {
		t.Logf("all %d pulls were served from %d version(s): the race did not interleave on this run", pulls, len(seen))
	}
}

// hashParams is the FNV-1a hash of a vector's float64 bits.
func hashParams(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}

// TestPeerThatNeverReadsPinsOneSnapshot: a peer asks for full pulls of a
// 2.6 MB model and never reads a byte. The replies block in the vectored
// write, aliasing the snapshot they were served from, which stays pinned
// under the frames' leases; 200 windows still publish behind it, from
// recycled storage — the heap does not grow by a model per window — and no
// goroutine is added per window. Hanging up fails the writes and releases
// the leases.
func TestPeerThatNeverReadsPinsOneSnapshot(t *testing.T) {
	ctx := context.Background()
	srv := newCore(t, server.Config{Arch: nn.ArchCIFAR100, Algorithm: learning.SSGD{}, K: 1, LearningRate: 0.05, DeltaHistory: 1})
	ss, addr := startStream(t, srv, Options{})
	params, _ := srv.Model()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	hello, _ := json.Marshal(helloPayload{WorkerID: 7, ContentType: protocol.ContentTypeFlat})
	if err := writeFrame(conn, frame{typ: fHello, corr: 1, payload: hello}); err != nil {
		t.Fatal(err)
	}
	if f, err := readFrame(conn); err != nil || f.typ != fWelcome {
		t.Fatalf("handshake: %+v, %v", f, err)
	}
	var req bytes.Buffer
	if err := protocol.Flat.Encode(&req, &protocol.TaskRequest{WorkerID: 7, LabelCounts: []int{1}}); err != nil {
		t.Fatal(err)
	}
	// Far more than the loopback socket buffers hold: a write must block.
	for corr := uint32(2); corr < 10; corr++ {
		if err := writeFrame(conn, frame{typ: fTask, corr: corr, payload: req.Bytes()}); err != nil {
			t.Fatal(err)
		}
	}
	var stuck *session
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		ss.mu.Lock()
		for sess := range ss.sessions {
			stuck = sess
		}
		ss.mu.Unlock()
		if stuck != nil && !stuck.writeMu.TryLock() {
			break // a reply is in its write and not getting out
		} else if stuck != nil {
			stuck.writeMu.Unlock()
		}
		if time.Now().After(deadline) {
			t.Fatal("no reply ever blocked on the unread connection")
		}
	}

	pusher := &Client{Addr: addr, WorkerID: 1, Codec: protocol.Flat, PingInterval: -1}
	defer func() { _ = pusher.Close() }()
	window := func(v int) {
		t.Helper()
		ack, err := pusher.PushGradient(ctx, &protocol.GradientPush{
			WorkerID: 1, ModelVersion: v - 1, BatchSize: 1, LabelCounts: make([]int, 100),
			GradientLen: len(params), SparseIndices: []int32{int32(v), int32(len(params) - 1)},
			SparseValues: []float64{float64(v), 0.5},
		})
		if err != nil || ack.NewVersion != v {
			t.Fatalf("window %d behind the stuck peer: %v (%+v)", v, err, ack)
		}
	}
	measure := func() (heap uint64, goroutines int) {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapInuse, runtime.NumGoroutine()
	}
	for v := 1; v <= 20; v++ { // warm: the pinned snapshot has fallen off, buffers cycle
		window(v)
	}
	heap0, gor0 := measure()
	for v := 21; v <= 220; v++ {
		window(v)
	}
	heap1, gor1 := measure()
	if model := uint64(8 * len(params)); heap1 > heap0+4*model {
		t.Fatalf("heap in use grew %d KB over 200 windows behind a stuck peer (a model is %d KB)", (heap1-heap0)>>10, model>>10)
	}
	// The handler that wrote the last ack may still be on its way out.
	for wait := time.Now().Add(2 * time.Second); gor1 > gor0 && time.Now().Before(wait); time.Sleep(5 * time.Millisecond) {
		gor1 = runtime.NumGoroutine()
	}
	if gor1 > gor0 {
		t.Fatalf("goroutines grew from %d to %d over 200 windows behind a stuck peer", gor0, gor1)
	}
	// A fresh full pull is the current model, whatever the stuck frames alias.
	resp, err := pusher.RequestTask(ctx, &protocol.TaskRequest{WorkerID: 1, LabelCounts: make([]int, 100)})
	want, _ := srv.Model()
	if err != nil || resp.ParamsDelta != nil || len(resp.Params) == 0 || hashParams(resp.Params) != hashParams(want) {
		t.Fatalf("pull behind the stuck peer: %v", err)
	}
}

// rawPeer is a hand-driven stream server for one session: it completes the
// handshake for a flat-codec client and hands the test the connection, to
// read request frames from and write reply bytes to.
func rawPeer(t *testing.T) (addr string, conn func() net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		if f, err := readFrame(c); err == nil && f.typ == fHello {
			body, _ := json.Marshal(welcomePayload{ContentType: protocol.ContentTypeFlat})
			_ = writeFrame(c, frame{typ: fWelcome, corr: f.corr, payload: body})
		}
		accepted <- c
	}()
	return ln.Addr().String(), func() net.Conn {
		select {
		case c := <-accepted:
			t.Cleanup(func() { _ = c.Close() })
			_ = c.SetDeadline(time.Now().Add(10 * time.Second))
			return c
		case <-time.After(5 * time.Second):
			t.Fatal("no session arrived")
			return nil
		}
	}
}

// taskReply is a task-response frame as raw bytes, its header declaring
// declared payload bytes whatever body holds.
func taskReply(corr uint32, body []byte, declared int) []byte {
	var b bytes.Buffer
	_ = writeFrame(&b, frame{typ: fTaskResp, corr: corr, payload: body})
	raw := b.Bytes()
	binary.BigEndian.PutUint32(raw[8:12], uint32(declared))
	return raw
}

// TestDirectDecodeKeepsFrameSync: a large task response is decoded from the
// connection, so the frame boundary is the decoder's to keep. A body cut
// short of its message, one with bytes past it, one whose call gave up
// mid-body and one answering the wrong kind of call must each fail (or be
// dropped for) that call alone: the next
// call on the session succeeds, and the wire counter reads what the peer
// sent, as it does when frames are buffered whole.
func TestDirectDecodeKeepsFrameSync(t *testing.T) {
	addr, accept := rawPeer(t)
	wire := &protocol.WireCounter{}
	c := &Client{Addr: addr, WorkerID: 1, Codec: protocol.Flat, PingInterval: -1, Wire: wire}
	defer func() { _ = c.Close() }()

	want := &protocol.TaskResponse{Accepted: true, ModelVersion: 5, Params: make([]float64, 20_000), BatchSize: 8}
	for i := range want.Params {
		want.Params[i] = float64(i) + 0.25
	}
	var enc bytes.Buffer
	if err := protocol.Flat.Encode(&enc, want); err != nil {
		t.Fatal(err)
	}
	body := enc.Bytes()

	type outcome struct {
		resp *protocol.TaskResponse
		err  error
	}
	call := func(ctx context.Context) <-chan outcome {
		done := make(chan outcome, 1)
		go func() {
			resp, err := c.RequestTask(ctx, &protocol.TaskRequest{WorkerID: 1})
			done <- outcome{resp, err}
		}()
		return done
	}
	first := call(context.Background())
	conn := accept()
	sent := int64(0) // what the peer has written since the handshake
	reply := func(raw []byte) {
		t.Helper()
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		sent += int64(len(raw))
	}
	request := func() uint32 {
		t.Helper()
		f, err := readFrame(conn)
		if err != nil || f.typ != fTask {
			t.Fatalf("request: %+v, %v", f, err)
		}
		return f.corr
	}
	// Cut short: the frame ends before the message does.
	corr := request()
	afterHandshake := wire.Downlink() // the request is sent after the welcome is counted
	reply(taskReply(corr, body[:len(body)-9], len(body)-9))
	if o := <-first; !protocol.IsCode(o.err, protocol.CodeInvalidArgument) {
		t.Fatalf("truncated body: %v, want invalid_argument", o.err)
	}
	// Over-long: 100 bytes the decoder never asks for follow the message.
	next := call(context.Background())
	reply(taskReply(request(), append(append([]byte(nil), body...), make([]byte, 100)...), len(body)+100))
	if o := <-next; !protocol.IsCode(o.err, protocol.CodeInvalidArgument) {
		t.Fatalf("over-long body: %v, want invalid_argument", o.err)
	}
	// Abandoned: the call gives up while its body is still arriving.
	ctx, cancel := context.WithCancel(context.Background())
	next = call(ctx)
	raw := taskReply(request(), body, len(body))
	reply(raw[:len(raw)/2])
	cancel()
	if o := <-next; !protocol.IsCode(o.err, protocol.CodeCanceled) {
		t.Fatalf("cancelled call: %v, want canceled", o.err)
	}
	reply(raw[len(raw)/2:])
	// Mistyped: a large task response answering a push is an error of that
	// call, not a value forced into its ack.
	pushed := make(chan error, 1)
	go func() {
		_, err := c.PushGradient(context.Background(), &protocol.GradientPush{WorkerID: 1, Gradient: []float64{1}, BatchSize: 1})
		pushed <- err
	}()
	if f, err := readFrame(conn); err != nil || f.typ != fPush {
		t.Fatalf("push request: %+v, %v", f, err)
	} else {
		reply(taskReply(f.corr, body, len(body)))
	}
	if err := <-pushed; !protocol.IsCode(err, protocol.CodeInternal) {
		t.Fatalf("task response to a push: %v, want internal", err)
	}
	// In sync after all of them: a whole response arrives whole.
	next = call(context.Background())
	reply(taskReply(request(), body, len(body)))
	o := <-next
	if o.err != nil {
		t.Fatalf("call after the bad bodies: %v", o.err)
	}
	if o.resp.ModelVersion != want.ModelVersion || len(o.resp.Params) != len(want.Params) {
		t.Fatalf("response after the bad bodies: v%d, %d params", o.resp.ModelVersion, len(o.resp.Params))
	}
	for i := range want.Params {
		if o.resp.Params[i] != want.Params[i] {
			t.Fatalf("response differs at %d", i)
		}
	}
	if got := wire.Downlink() - afterHandshake; got != sent {
		t.Fatalf("downlink counted %d bytes, the peer sent %d", got, sent)
	}
	if c.Dials() != 1 {
		t.Fatalf("%d dials: a bad body cost the session", c.Dials())
	}
}

// watchedCodec is the flat codec, reporting when a task-response decode is
// running.
type watchedCodec struct {
	protocol.Codec
	entered  chan struct{}
	decoding atomic.Bool
}

func (w *watchedCodec) Decode(r io.Reader, v interface{}) error {
	if _, ok := v.(*protocol.TaskResponse); ok {
		w.decoding.Store(true)
		defer w.decoding.Store(false)
		close(w.entered)
	}
	return w.Codec.Decode(r, v)
}

// TestCloseWaitsForReadLoop: Close returns only once the session's read
// loop is gone, so nothing of a closed client still runs (or reads package
// state a test is about to restore), and a response being decoded off the
// connection at that moment fails its call with unavailable — the caller
// never sees part of a model.
func TestCloseWaitsForReadLoop(t *testing.T) {
	addr, accept := rawPeer(t)
	codec := &watchedCodec{Codec: protocol.Flat, entered: make(chan struct{})}
	c := &Client{Addr: addr, WorkerID: 1, Codec: codec, PingInterval: 10 * time.Millisecond}

	done := make(chan error, 1)
	go func() {
		resp, err := c.RequestTask(context.Background(), &protocol.TaskRequest{WorkerID: 1})
		if err == nil {
			t.Errorf("the call returned a response of %d params from half a body", len(resp.Params))
		}
		done <- err
	}()
	conn := accept()
	f, err := readFrame(conn)
	for err == nil && f.typ == fPing { // heartbeats may precede the request
		f, err = readFrame(conn)
	}
	if err != nil || f.typ != fTask {
		t.Fatalf("request: %+v, %v", f, err)
	}
	var enc bytes.Buffer
	if err := protocol.Flat.Encode(&enc, &protocol.TaskResponse{Accepted: true, Params: make([]float64, 40_000)}); err != nil {
		t.Fatal(err)
	}
	raw := taskReply(f.corr, enc.Bytes(), enc.Len())
	if _, err := conn.Write(raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-codec.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the response was never decoded off the connection")
	}

	c.mu.Lock()
	sess := c.sess
	c.mu.Unlock()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if codec.decoding.Load() {
		t.Fatal("Close returned while the read loop was still decoding")
	}
	gone := make(chan struct{})
	go func() { sess.loops.Wait(); close(gone) }()
	select {
	case <-gone:
	case <-time.After(time.Second):
		t.Fatal("Close returned with a session loop still running")
	}
	select {
	case err := <-done:
		if !protocol.IsCode(err, protocol.CodeUnavailable) {
			t.Fatalf("call in flight at Close: %v, want unavailable", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the call in flight at Close never returned")
	}
}

// modelSvc serves one immutable model to every task request.
type modelSvc struct {
	service.Service
	params []float64
}

func (m modelSvc) RequestTask(context.Context, *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	return &protocol.TaskResponse{Accepted: true, ModelVersion: 1, Params: m.params, BatchSize: 32}, nil
}

func (m modelSvc) Stats(context.Context) (*protocol.Stats, error) { return &protocol.Stats{}, nil }

// BenchmarkStreamFullPull is one cold pull of a cifar100-sized model (325 k
// parameters, 2.6 MB) over a loopback flat session, both ends in the
// process: B/op is what server and client allocate together, and sits near
// the one []float64 the client must own.
func BenchmarkStreamFullPull(b *testing.B) {
	params := make([]float64, 325_000)
	for i := range params {
		params[i] = float64(i) * 1e-3
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ss := NewServer(modelSvc{params: params}, Options{})
	go func() { _ = ss.Serve(ln) }()
	defer func() { _ = ss.Shutdown(context.Background()) }()
	c := &Client{Addr: ln.Addr().String(), WorkerID: 1, Codec: protocol.Flat, PingInterval: -1}
	defer func() { _ = c.Close() }()
	ctx, req := context.Background(), &protocol.TaskRequest{WorkerID: 1}
	if _, err := c.RequestTask(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * len(params)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.RequestTask(ctx, req)
		if err != nil || len(resp.Params) != len(params) {
			b.Fatalf("pull: %v", err)
		}
	}
}
