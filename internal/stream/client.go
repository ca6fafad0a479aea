package stream

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fleet/internal/protocol"
	"fleet/internal/service"
)

// Client is the worker side of the stream transport: one persistent
// session to the server, multiplexing RequestTask/PushGradient/Stats by
// correlation ID and absorbing server-pushed model announcements on the
// side. It implements service.Service, so workers (and the whole
// interceptor machinery) run unchanged over it — including the
// epoch-conflict resync path, because error frames reconstruct the exact
// *protocol.Error the server returned.
//
// The session is dialed lazily on the first call and redialed
// transparently on the next call after it breaks or the server announces a
// drain (goaway) — a worker never wedges on a dead socket. Safe for
// concurrent use.
type Client struct {
	// Addr is the server's stream listener address (host:port).
	Addr string
	// Codec selects the wire representation (nil: protocol.Default).
	Codec protocol.Codec
	// WorkerID identifies the worker in the session handshake.
	WorkerID int
	// Subscribe asks the server for model announcements on this session.
	Subscribe bool
	// Tenant and Token are the session's multi-tenant credentials, sent in
	// the hello frame: the tenant this worker serves ("" aliases to the
	// default tenant) and the bearer token minted for (tenant, worker).
	Tenant string
	Token  string
	// PingInterval is the idle heartbeat period (0: a third of the
	// server's default idle timeout; negative: no heartbeats).
	PingInterval time.Duration
	// Wire, when non-nil, tallies the frames in both directions, headers
	// and control frames included (see protocol.WireCounter).
	Wire *protocol.WireCounter
	// OnAnnounce, when non-nil, observes every model announcement as it
	// arrives (called from the session's read loop; keep it brief), before
	// TakeAnnounces or WaitAnnounced can see it.
	OnAnnounce func(protocol.ModelAnnounce)

	mu   sync.Mutex // guards sess lifecycle
	sess *clientSession
	// retired holds sessions the server told to go away, still finishing
	// their in-flight calls, until they die or Close ends them.
	retired []*clientSession
	dials   atomic.Int64

	// Announce state: the latest announced (epoch, version) plus the
	// longest consecutive delta chain ending there, for proactive absorb.
	annMu     sync.Mutex
	annNotify chan struct{}
	annRun    []protocol.ModelAnnounce
	annVer    int
	annEpoch  int64
	annSeen   bool
}

var _ service.Service = (*Client)(nil)

// maxPendingAnnounces bounds the run a client holds for TakeAnnounces, so
// an owner that never takes (it only listens on OnAnnounce) or stalls does
// not retain one delta per model version forever. Deep enough that a worker
// computing while a few hundred versions are minted keeps its whole chain
// (the stream-push scenario peaks at 122 pending); further behind than
// that, a pull beats patching the backlog anyway.
const maxPendingAnnounces = 256

// dialTimeout bounds session establishment, handshake included, and how long
// the calls still in flight on a session the server drained may run on it.
const dialTimeout = 10 * time.Second

// RequestTask implements service.Service over the stream.
func (c *Client) RequestTask(ctx context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	var resp protocol.TaskResponse
	if err := c.call(ctx, fTask, fTaskResp, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// PushGradient implements service.Service over the stream.
func (c *Client) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	var ack protocol.PushAck
	if err := c.call(ctx, fPush, fPushAck, push, &ack); err != nil {
		return nil, err
	}
	return &ack, nil
}

// Stats implements service.Service over the stream.
func (c *Client) Stats(ctx context.Context) (*protocol.Stats, error) {
	var stats protocol.Stats
	if err := c.call(ctx, fStats, fStatsResp, nil, &stats); err != nil {
		return nil, err
	}
	return &stats, nil
}

// Dials returns how many sessions this client has established — the
// worker's transport connection count (1 for a healthy lifetime; each
// server drain or broken session adds a redial).
func (c *Client) Dials() int64 { return c.dials.Load() }

// Connected reports whether a live, non-draining session is currently held.
func (c *Client) Connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sess != nil && !c.sess.dead() && !c.sess.draining.Load()
}

// Close tears the session down (a final goaway tells the server this is
// deliberate) and returns once its read and heartbeat loops have exited, so
// nothing of it still runs afterwards; calls in flight fail with
// unavailable. The client remains usable: the next call dials fresh.
// Calling it from OnAnnounce is a misuse (it would wait for its own caller,
// the read loop): that session is closed, not waited for, and Close returns
// an internal error. From any other goroutine it waits out a running callback.
func (c *Client) Close() error {
	c.mu.Lock()
	sessions := c.retired
	if c.sess != nil {
		sessions = append(sessions, c.sess)
	}
	c.sess, c.retired = nil, nil
	c.mu.Unlock()
	var err error
	for _, sess := range sessions {
		sess.sendGoAway("client closing")
		sess.fail(protocol.Errorf(protocol.CodeUnavailable, "stream: client closed session"))
		if sess.reader.Load() == goroutineID() {
			err = protocol.Errorf(protocol.CodeInternal, "stream: Close called from OnAnnounce: session closed, its read loop (the caller) not waited for")
			continue
		}
		sess.loops.Wait()
	}
	return err
}

// goroutineID reads the caller's id off its stack header ("goroutine 12 ["),
// as x/net/http2's goroutine lock does; 0 if the header does not parse.
func goroutineID() (id uint64) {
	var buf [64]byte
	_, _ = fmt.Sscanf(string(buf[:runtime.Stack(buf[:], false)]), "goroutine %d ", &id)
	return id
}

// TakeAnnounces returns (and clears) the pending consecutive delta chain:
// every announcement since the last take whose deltas chain gap-free up to
// the latest announced version. A chain broken by a dropped announce, an
// epoch change or a delta-less drain resets to the announcements after the
// break — callers absorb what applies and pull for the rest. At most
// maxPendingAnnounces are kept; past that the oldest are dropped, which a
// caller sees as a gap.
func (c *Client) TakeAnnounces() []protocol.ModelAnnounce {
	c.annMu.Lock()
	defer c.annMu.Unlock()
	run := c.annRun
	c.annRun = nil
	return run
}

// WaitAnnounced blocks until the announced model clock reaches (epoch,
// version) — same epoch at that version or beyond, or any later epoch — or
// ctx expires. The load harness uses it as a determinism fence: a push
// that minted version v has broadcast v before acking, so waiting for v
// makes announce delivery part of the deterministic event order.
func (c *Client) WaitAnnounced(ctx context.Context, epoch int64, version int) error {
	for {
		c.annMu.Lock()
		reached := c.annSeen && (c.annEpoch > epoch || (c.annEpoch == epoch && c.annVer >= version))
		ch := c.notifyLocked()
		c.annMu.Unlock()
		if reached {
			return nil
		}
		select {
		case <-ctx.Done():
			return protocol.AsError(ctx.Err())
		case <-ch:
		}
	}
}

// notifyLocked returns the channel closed on the next announce-state
// change. Callers hold annMu.
func (c *Client) notifyLocked() chan struct{} {
	if c.annNotify == nil {
		c.annNotify = make(chan struct{})
	}
	return c.annNotify
}

// noteAnnounce folds one announcement into the client's announce state,
// after OnAnnounce has observed it: a WaitAnnounced that returns for this
// announce returns after the callback did.
func (c *Client) noteAnnounce(ann protocol.ModelAnnounce) {
	if c.OnAnnounce != nil {
		c.OnAnnounce(ann)
	}
	c.annMu.Lock()
	if !c.annSeen || !ann.Follows(c.annVer, c.annEpoch) {
		c.annRun = c.annRun[:0]
	}
	if ann.Delta != nil {
		if len(c.annRun) == maxPendingAnnounces {
			c.annRun = append(c.annRun[:0], c.annRun[1:]...) // drop the oldest
		}
		c.annRun = append(c.annRun, ann)
	}
	c.annSeen = true
	c.annEpoch = ann.ServerEpoch
	c.annVer = ann.ModelVersion
	close(c.notifyLocked())
	c.annNotify = nil
	c.annMu.Unlock()
}

// noteFloor records the session-setup model clock from the welcome frame:
// the subscriber will only be announced versions beyond it.
func (c *Client) noteFloor(version int, epoch int64) {
	c.annMu.Lock()
	defer c.annMu.Unlock()
	if c.annSeen && (epoch < c.annEpoch || (epoch == c.annEpoch && version <= c.annVer)) {
		return
	}
	c.annRun = c.annRun[:0]
	c.annSeen = true
	c.annEpoch = epoch
	c.annVer = version
	close(c.notifyLocked())
	c.annNotify = nil
}

// call performs one request/response exchange, (re)establishing the
// session as needed.
func (c *Client) call(ctx context.Context, reqType, respType frameType, in, out interface{}) error {
	sess, err := c.session(ctx)
	if err != nil {
		return err
	}
	// The request is encoded into the outgoing frame; the write below
	// completes before call returns, so in's arrays may go by reference.
	req := newFrameOut()
	defer req.release()
	if in != nil {
		if err := sess.codec.Encode(req, in); err != nil {
			return err
		}
	}
	corr, ch, err := sess.register()
	if err != nil {
		return err
	}
	defer sess.unregister(corr)
	if err := sess.send(reqType, corr, req); err != nil {
		var pe *protocol.Error
		if errors.As(err, &pe) {
			// Refused before a byte was written (payload_too_large): the
			// caller's fault, and the session is intact.
			return pe
		}
		err = protocol.Errorf(protocol.CodeUnavailable, "stream: write %s: %v", reqType, err)
		sess.fail(err)
		return err
	}
	select {
	case <-ctx.Done():
		return protocol.AsError(ctx.Err())
	case res := <-ch:
		if res.err != nil {
			return res.err
		}
		switch res.f.typ {
		case fError:
			return decodeErrorFrame(res.f.payload)
		case respType:
			if res.task != nil { // decoded by the read loop; respType is fTaskResp
				*out.(*protocol.TaskResponse) = *res.task
				return nil
			}
			return sess.decode(bytes.NewReader(res.f.payload), out)
		}
		return protocol.Errorf(protocol.CodeInternal,
			"stream: got %s in response to %s", res.f.typ, reqType)
	}
}

// session returns the live session, dialing a fresh one when there is none
// or the current one is dead or draining.
func (c *Client) session(ctx context.Context) (*clientSession, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sess != nil && !c.sess.dead() {
		if !c.sess.draining.Load() {
			return c.sess, nil
		}
		// The server said goaway: let in-flight calls finish on the old
		// session, but route new calls over a fresh one.
		old := c.sess
		c.sess = nil
		c.retired = append(slices.DeleteFunc(c.retired, (*clientSession).dead), old)
		go func() {
			time.Sleep(dialTimeout)
			old.fail(protocol.Errorf(protocol.CodeUnavailable, "stream: session drained"))
		}()
	}
	sess, err := c.dial(ctx)
	if err != nil {
		return nil, err
	}
	c.sess = sess
	c.dials.Add(1)
	return sess, nil
}

func (c *Client) codec() protocol.Codec {
	if c.Codec == nil {
		return protocol.Default
	}
	return c.Codec
}

// dial establishes a session: connect, hello, welcome, then start the read
// and heartbeat loops.
func (c *Client) dial(ctx context.Context) (*clientSession, error) {
	dialer := net.Dialer{Timeout: dialTimeout}
	conn, err := dialer.DialContext(ctx, "tcp", c.Addr)
	if err != nil {
		return nil, protocol.Errorf(protocol.CodeUnavailable, "stream: dial %s: %v", c.Addr, err)
	}
	sess := &clientSession{
		client:  c,
		conn:    conn,
		br:      bufio.NewReader(conn),
		codec:   c.codec(),
		pending: make(map[uint32]chan callResult),
		done:    make(chan struct{}),
	}
	hello, _ := json.Marshal(helloPayload{
		WorkerID:    c.WorkerID,
		ContentType: sess.codec.ContentType(),
		Subscribe:   c.Subscribe,
		Tenant:      c.Tenant,
		Token:       c.Token,
	})
	_ = conn.SetDeadline(time.Now().Add(dialTimeout))
	if err := sess.write(frame{typ: fHello, corr: 1, payload: hello}); err != nil {
		_ = conn.Close()
		return nil, protocol.Errorf(protocol.CodeUnavailable, "stream: hello: %v", err)
	}
	f, err := readFrame(sess.br)
	if err != nil {
		_ = conn.Close()
		return nil, readErr("welcome", err)
	}
	c.Wire.AddDownlink(int64(headerSize + len(f.payload)))
	switch f.typ {
	case fError:
		_ = conn.Close()
		return nil, decodeErrorFrame(f.payload)
	case fWelcome:
	default:
		_ = conn.Close()
		return nil, protocol.Errorf(protocol.CodeInternal, "stream: expected welcome, got %s", f.typ)
	}
	var welcome welcomePayload
	if err := json.Unmarshal(f.payload, &welcome); err != nil {
		_ = conn.Close()
		return nil, protocol.Errorf(protocol.CodeInternal, "stream: malformed welcome: %v", err)
	}
	_ = conn.SetDeadline(time.Time{})
	if c.Subscribe {
		c.noteFloor(welcome.ModelVersion, welcome.ServerEpoch)
	}
	sess.loops.Add(1)
	go sess.readLoop()
	if interval := c.pingInterval(); interval > 0 {
		sess.loops.Add(1)
		go sess.pingLoop(interval)
	}
	return sess, nil
}

func (c *Client) pingInterval() time.Duration {
	switch {
	case c.PingInterval > 0:
		return c.PingInterval
	case c.PingInterval < 0:
		return 0
	}
	return DefaultIdleTimeout / 3
}

// callResult is what a pending call receives: a response frame, a task
// response the read loop decoded off the connection, or the error that
// failed the call (session-fatal, or that decode's).
type callResult struct {
	f    frame
	task *protocol.TaskResponse
	err  error
}

// directDecodeBytes is the payload size from which a task response is
// decoded straight from the connection instead of through a buffered copy
// of the frame: with the flat codec a full pull's model then crosses user
// space once, socket to []float64.
const directDecodeBytes = 64 << 10

// clientSession is one established stream session.
type clientSession struct {
	client *Client
	conn   net.Conn
	// br buffers the read side, so a small frame costs one read of the
	// socket, not one for its header and one for its payload. Only dial and
	// then the read loop touch it.
	br    *bufio.Reader
	codec protocol.Codec

	writeMu sync.Mutex
	corr    atomic.Uint32

	pmu      sync.Mutex
	pending  map[uint32]chan callResult
	closed   bool
	closeErr error

	draining atomic.Bool
	done     chan struct{}
	once     sync.Once
	loops    sync.WaitGroup // the read and heartbeat loops
	reader   atomic.Uint64  // the read loop's goroutineID, 0 until it runs
}

// register allocates a correlation ID and its response channel; it fails
// when the session already died (the caller redials on its next call).
func (s *clientSession) register() (uint32, chan callResult, error) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.closed {
		return 0, nil, s.closeErr
	}
	corr := s.corr.Add(1)
	for corr == 0 || corr == 1 { // 0 is unsolicited, 1 was the hello
		corr = s.corr.Add(1)
	}
	ch := make(chan callResult, 1)
	s.pending[corr] = ch
	return corr, ch, nil
}

func (s *clientSession) unregister(corr uint32) {
	s.pmu.Lock()
	delete(s.pending, corr)
	s.pmu.Unlock()
}

// deliver routes a response to the call waiting on corr, if it still is.
func (s *clientSession) deliver(corr uint32, res callResult) {
	s.pmu.Lock()
	ch, ok := s.pending[corr]
	if ok {
		delete(s.pending, corr)
	}
	s.pmu.Unlock()
	if ok {
		ch <- res
	}
}

// awaited reports whether a call is waiting on corr.
func (s *clientSession) awaited(corr uint32) bool {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	_, ok := s.pending[corr]
	return ok
}

// fail terminates the session: every pending call gets err, the connection
// closes, and the client dials fresh on its next call.
func (s *clientSession) fail(err error) {
	s.pmu.Lock()
	if s.closed {
		s.pmu.Unlock()
		return
	}
	s.closed = true
	s.closeErr = err
	pending := s.pending
	s.pending = nil
	s.pmu.Unlock()
	for _, ch := range pending {
		ch <- callResult{err: err}
	}
	s.once.Do(func() { close(s.done) })
	_ = s.conn.Close()
}

func (s *clientSession) dead() bool {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return s.closed
}

// readLoop demultiplexes inbound frames until the session dies. Frames it
// consumes itself (announces, session control) are read into one buffer it
// reuses; a response's payload is handed to its call and so allocated.
func (s *clientSession) readLoop() {
	defer s.loops.Done()
	s.reader.Store(goroutineID())
	var scratch []byte
	for {
		f, n, err := readHeader(s.br)
		var res callResult
		switch {
		case err != nil:
		case f.typ == fTaskResp && n >= directDecodeBytes:
			res, err = s.readTaskResponse(f.corr, n)
		case f.typ == fAnnounce || f.typ == fGoAway || f.typ == fPong || (f.typ == fError && f.corr == 0):
			f.payload, err = readPayload(s.br, f.typ, n, scratch)
			if f.payload != nil && cap(f.payload) <= framePoolMaxBytes {
				scratch = f.payload[:0]
			}
		default:
			f.payload, err = readPayload(s.br, f.typ, n, nil)
		}
		if err != nil {
			if errors.Is(err, errSessionClosed) || errors.Is(err, net.ErrClosed) {
				err = protocol.Errorf(protocol.CodeUnavailable, "stream: session closed by server")
			}
			s.fail(readErr("response", err))
			return
		}
		s.client.Wire.AddDownlink(headerSize + n)
		switch f.typ {
		case fAnnounce:
			var ann protocol.ModelAnnounce
			if err := s.decode(bytes.NewReader(f.payload), &ann); err == nil {
				s.client.noteAnnounce(ann)
			}
		case fGoAway:
			// The server is draining: in-flight responses still arrive on
			// this connection, but the client's next call redials.
			s.draining.Store(true)
		case fPong:
			// Heartbeat answered; any inbound frame proves liveness.
		case fError:
			if f.corr == 0 {
				// Session-level error (protocol violation report): the
				// server hangs up after sending it.
				s.fail(decodeErrorFrame(f.payload))
				return
			}
			s.deliver(f.corr, callResult{f: f})
		default:
			res.f = f
			s.deliver(f.corr, res)
		}
	}
}

// readTaskResponse consumes the n-byte body of a large task response by
// decoding it from the connection into a value of the session's own — never
// into the caller's, which a cancelled call has already walked away from.
// Whatever the decoder leaves unread (a body longer than its message; all of
// it when no call waits on corr) is skipped, so a body the codec rejects
// fails its call (the result's err) and the session stays on the frame
// boundary; the error returned is the connection's and ends the session.
func (s *clientSession) readTaskResponse(corr uint32, n int64) (res callResult, err error) {
	body := io.LimitedReader{R: s.br, N: n}
	if s.awaited(corr) {
		res.task = new(protocol.TaskResponse)
		if res.err = s.decode(&body, res.task); res.err != nil {
			res.task = nil
		}
	}
	if _, err := io.Copy(io.Discard, &body); err != nil || body.N > 0 {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return callResult{}, payloadErr(fTaskResp, n, err)
	}
	return res, nil
}

// pingLoop heartbeats an idle session so the server's idle timeout only
// fires for peers that are actually gone.
func (s *clientSession) pingLoop(interval time.Duration) {
	defer s.loops.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
			if err := s.write(frame{typ: fPing}); err != nil {
				s.fail(protocol.Errorf(protocol.CodeUnavailable, "stream: heartbeat: %v", err))
				return
			}
		}
	}
}

// write serializes one frame onto the connection, counting uplink bytes.
func (s *clientSession) write(f frame) error {
	out := newFrameOut()
	defer out.release()
	_, _ = out.WriteShared(f.payload) // never fails
	return s.send(f.typ, f.corr, out)
}

// send is write for a frame assembled in place, under correlation ID corr.
func (s *clientSession) send(typ frameType, corr uint32, out *frameOut) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := out.writeTo(s.conn, typ, corr); err != nil {
		return err
	}
	s.client.Wire.AddUplink(int64(headerSize + out.Len()))
	return nil
}

func (s *clientSession) decode(r io.Reader, v interface{}) error {
	if err := s.codec.Decode(r, v); err != nil {
		var pe *protocol.Error
		if errors.As(err, &pe) {
			return pe
		}
		return fmt.Errorf("stream: decode response: %w", err)
	}
	return nil
}

func (s *clientSession) sendGoAway(reason string) {
	body, _ := json.Marshal(goAwayPayload{Reason: reason})
	_ = s.write(frame{typ: fGoAway, payload: body})
}

// decodeErrorFrame reconstructs the structured error carried by an fError
// frame, so callers observe the same *protocol.Error the server returned
// (the resync path branches on its code).
func decodeErrorFrame(payload []byte) error {
	var pe protocol.Error
	if err := json.Unmarshal(payload, &pe); err == nil && pe.Code != "" {
		return &pe
	}
	return protocol.Errorf(protocol.CodeInternal, "stream: malformed error frame: %q", payload)
}
