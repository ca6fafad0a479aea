package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fleet/internal/protocol"
	"fleet/internal/service"
)

// Options parameterizes a stream Server.
type Options struct {
	// IdleTimeout closes a session that has sent no frame for this long;
	// clients heartbeat with pings to keep idle sessions alive. 0 means
	// the default (2 minutes); negative disables the timeout.
	IdleTimeout time.Duration
	// Logf, when non-nil, receives one line per session lifecycle event
	// and protocol violation (fmt.Printf-style).
	Logf func(format string, args ...interface{})
	// Resolver, on multi-tenant deployments, maps the hello frame's tenant
	// name onto the service serving that tenant plus the canonical tenant
	// label used for announce fan-out (the empty name aliases to the
	// default tenant). nil serves every session with the constructor's
	// service under the empty label — the single-tenant posture.
	Resolver func(tenant string) (service.Service, string, error)
}

// DefaultIdleTimeout is the session idle timeout when Options doesn't set
// one. Client heartbeats default to a third of it.
const DefaultIdleTimeout = 2 * time.Minute

// Server accepts persistent worker sessions and serves the learning-task
// protocol over them, dispatching every request frame to the wrapped
// service.Service. It is the streaming sibling of server.NewHandler: both
// are envelopes around service.Call, so the wire endpoint, the interceptors
// and the learning core are shared unchanged.
type Server struct {
	svc  service.Service
	opts Options

	// ctx cancels in-flight service calls at (forced) shutdown.
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	sessions  map[*session]struct{}
	listeners map[net.Listener]struct{}
	draining  bool

	inflight sync.WaitGroup // request frames being handled
	loops    sync.WaitGroup // session read loops

	broadcasts atomic.Int64
}

// NewServer builds a stream server around svc.
func NewServer(svc service.Service, opts Options) *Server {
	if opts.IdleTimeout == 0 {
		opts.IdleTimeout = DefaultIdleTimeout
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		svc:       svc,
		opts:      opts,
		ctx:       ctx,
		cancel:    cancel,
		sessions:  make(map[*session]struct{}),
		listeners: make(map[net.Listener]struct{}),
	}
}

// Serve accepts sessions on ln until the listener is closed (typically by
// Shutdown). It always returns a non-nil error, net.ErrClosed after a
// clean shutdown — the same contract as http.Server.Serve.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		_ = ln.Close()
		return net.ErrClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.loops.Add(1)
		go func() {
			defer s.loops.Done()
			s.serveConn(conn)
		}()
	}
}

// Sessions returns the number of currently registered sessions.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Broadcasts returns the total announce frames enqueued across all
// sessions (a per-session-delivery count, not a per-Broadcast-call count).
func (s *Server) Broadcasts() int64 { return s.broadcasts.Load() }

// Broadcast fans one model announcement out to the subscribed sessions
// under the empty tenant label: every session of a single-tenant server,
// none of a multi-tenant one (the Resolver gives each session its tenant's
// canonical name). It is BroadcastTenant("", ann).
func (s *Server) Broadcast(ann protocol.ModelAnnounce) {
	s.BroadcastTenant("", ann)
}

// BroadcastTenant fans an announcement out to the subscribed sessions whose
// tenant label — the canonical name the Resolver returned at handshake, ""
// without one — is tenant, so tenant A's model updates never reach tenant
// B's workers. It never blocks on a slow session: each session holds a
// small announce queue whose overflow drops the oldest entry. An announce
// is only a freshness hint: the client resets its chain at the gap, and its
// next pull names the version it holds, which the core answers with a delta
// composed once per base. Safe for concurrent use; the parameter server
// invokes it from its snapshot-publish hook (Server.OnSnapshot).
//
// The announce payload is encoded once per negotiated codec and the bytes
// shared across every target session, so a fleet of N subscribers on one
// codec costs one encode per drain instead of N (see BenchmarkBroadcast).
// A codec that fails to encode it is logged once, and its sessions miss
// this announce.
func (s *Server) BroadcastTenant(tenant string, ann protocol.ModelAnnounce) {
	s.mu.Lock()
	targets := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		if sess.subscribe && sess.tenant == tenant {
			targets = append(targets, sess)
		}
	}
	s.mu.Unlock()
	encoded := make(map[string][]byte, 2)
	for _, sess := range targets {
		ct := sess.codec.ContentType()
		payload, done := encoded[ct]
		if !done {
			var buf bytes.Buffer
			if err := sess.codec.Encode(&buf, &ann); err != nil {
				s.logf("stream: encode announce (%s): %v", ct, err)
			} else {
				payload = buf.Bytes()
			}
			encoded[ct] = payload
		}
		if payload != nil {
			sess.enqueueAnnounce(payload)
			s.broadcasts.Add(1)
		}
	}
}

// Shutdown drains the server gracefully: stop accepting, tell every live
// session "server draining" with a final goaway frame (so workers reconnect
// instead of timing out on a dead socket), wait for in-flight request
// frames to finish and their responses to be written, then close all
// sessions. ctx bounds the wait; on expiry remaining service calls are
// canceled and connections closed immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	lns := make([]net.Listener, 0, len(s.listeners))
	for ln := range s.listeners {
		lns = append(lns, ln)
	}
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()

	for _, ln := range lns {
		_ = ln.Close()
	}
	for _, sess := range sessions {
		sess.sendGoAway("server draining")
	}

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	// Cancel whatever is still running (no-op after a clean drain), then
	// tear the connections down and wait for the session loops to exit.
	s.cancel()
	s.mu.Lock()
	sessions = sessions[:0]
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.close()
	}
	s.loops.Wait()
	return err
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// session is one worker's persistent connection on the server side.
type session struct {
	srv       *Server
	conn      net.Conn
	codec     protocol.Codec
	workerID  int
	subscribe bool

	// svc serves this session's calls: the tenant unit the Resolver picked
	// at handshake, or the server-wide service on single-tenant
	// deployments. tenant is the canonical fan-out label; creds ride every
	// dispatched call so the tenant interceptor re-validates per call.
	svc    service.Service
	tenant string
	creds  service.Credentials

	writeMu sync.Mutex // serializes frames onto the connection

	// annQueue buffers pending announce payloads — the broadcaster's
	// encoded bytes, shared by every session on the same codec — for the
	// dedicated writer goroutine. On overflow enqueueAnnounce drops the
	// oldest. annReady (capacity 1) wakes the writer.
	annMu    sync.Mutex
	annQueue [][]byte
	annReady chan struct{}
	done     chan struct{}
	once     sync.Once
}

// announceBuffer is the per-session announce queue depth. Deep enough that
// a healthy session keeps a full consecutive delta chain through a burst of
// drains; overflow drops the oldest (the client then catches up by pull)
// and never blocks the broadcaster.
const announceBuffer = 16

// payloadBufs recycles the storage serveConn reads frame payloads into
// (framePoolMaxBytes bounds what is kept).
var payloadBufs = sync.Pool{New: func() interface{} { return new([]byte) }}

// recyclePayload returns buf to payloadBufs, keeping p's storage instead when
// readPayload had to allocate it (buf was too small) and it is within bounds.
func recyclePayload(buf *[]byte, p []byte) {
	if cap(p) > cap(*buf) && cap(p) <= framePoolMaxBytes {
		*buf = p[:0]
	}
	payloadBufs.Put(buf)
}

// serveConn runs one session: hello/welcome handshake, then the multiplexed
// frame loop until the peer leaves, errs, or the server shuts down. Each
// frame's payload is read into recycled storage (payloadBufs); a request's
// goes back once handle has served it, as nothing decoded from a payload
// aliases its bytes.
func (s *Server) serveConn(conn net.Conn) {
	defer func() { _ = conn.Close() }()

	sess, ok := s.handshake(conn)
	if !ok {
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		sess.sendGoAway("server draining")
		return
	}
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()
	s.logf("stream: worker %d session open (%s, subscribe=%v)", sess.workerID, sess.codec.ContentType(), sess.subscribe)

	go sess.announceLoop()
	defer func() {
		s.mu.Lock()
		delete(s.sessions, sess)
		s.mu.Unlock()
		sess.close()
		s.logf("stream: worker %d session closed", sess.workerID)
	}()

	for {
		s.armIdleDeadline(conn)
		buf := payloadBufs.Get().(*[]byte)
		f, n, err := readHeader(conn)
		if err == nil {
			f.payload, err = readPayload(conn, f.typ, n, *buf)
		}
		if err != nil {
			payloadBufs.Put(buf)
			if !errors.Is(err, errSessionClosed) && !errors.Is(err, net.ErrClosed) {
				// Protocol violation or transport failure: tell the peer
				// why (best effort — the stream may be desynchronized, but
				// the error frame is self-contained) and hang up.
				s.logf("stream: worker %d: %v", sess.workerID, err)
				sess.writeError(0, err)
			}
			return
		}
		switch f.typ {
		case fTask, fPush, fStats:
			s.inflight.Add(1)
			go func(f frame, buf *[]byte) {
				defer s.inflight.Done()
				sess.handle(f)
				recyclePayload(buf, f.payload)
			}(f, buf)
			continue
		case fPing:
			err = sess.write(frame{typ: fPong, corr: f.corr, payload: f.payload})
		case fGoAway:
			recyclePayload(buf, f.payload)
			return
		default:
			// Unknown or unexpected type on an intact frame boundary:
			// answer with a structured error, keep the session.
			sess.writeError(f.corr, protocol.Errorf(protocol.CodeInvalidArgument,
				"stream: unexpected %s frame", f.typ))
		}
		recyclePayload(buf, f.payload)
		if err != nil {
			return
		}
	}
}

// handshake performs hello → welcome and returns the prepared session.
// On failure it writes a structured error frame and reports !ok.
func (s *Server) handshake(conn net.Conn) (*session, bool) {
	sess := &session{
		srv:      s,
		conn:     conn,
		codec:    protocol.Default,
		annReady: make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	s.armIdleDeadline(conn)
	f, err := readFrame(conn)
	if err != nil {
		if !errors.Is(err, errSessionClosed) {
			s.logf("stream: handshake: %v", err)
			sess.writeError(0, err)
		}
		return nil, false
	}
	if f.typ != fHello {
		sess.writeError(f.corr, protocol.Errorf(protocol.CodeInvalidArgument,
			"stream: expected hello, got %s", f.typ))
		return nil, false
	}
	var hello helloPayload
	if err := json.Unmarshal(f.payload, &hello); err != nil {
		sess.writeError(f.corr, protocol.Errorf(protocol.CodeInvalidArgument,
			"stream: malformed hello: %v", err))
		return nil, false
	}
	codec, err := protocol.CodecForContentType(hello.ContentType)
	if err != nil {
		sess.writeError(f.corr, err)
		return nil, false
	}
	sess.codec = codec
	sess.workerID = hello.WorkerID
	sess.subscribe = hello.Subscribe
	sess.svc = s.svc
	sess.creds = service.Credentials{Tenant: hello.Tenant, Token: hello.Token}
	if s.opts.Resolver != nil {
		svc, tenant, err := s.opts.Resolver(hello.Tenant)
		if err != nil {
			sess.writeError(f.corr, err)
			return nil, false
		}
		sess.svc = svc
		sess.tenant = tenant
	}

	welcome := welcomePayload{ContentType: codec.ContentType()}
	stats, err := sess.svc.Stats(sess.callCtx())
	if err != nil {
		// The welcome's stats probe is the session's first enforced call:
		// a bad or replayed token fails here, so the dial errors with the
		// structured unauthenticated error instead of opening a session
		// that rejects every frame.
		if protocol.IsCode(err, protocol.CodeUnauthenticated) {
			sess.writeError(f.corr, err)
			return nil, false
		}
	} else {
		welcome.ModelVersion = stats.ModelVersion
		welcome.ServerEpoch = stats.ServerEpoch
	}
	body, _ := json.Marshal(welcome)
	if err := sess.write(frame{typ: fWelcome, corr: f.corr, payload: body}); err != nil {
		return nil, false
	}
	return sess, true
}

func (s *Server) armIdleDeadline(conn net.Conn) {
	if s.opts.IdleTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
	}
}

// handle serves one request frame through service.Call — the endpoint the
// HTTP transport serves through too — and writes the encoded reply (or a
// structured error) under the frame's correlation ID. Nothing it serves
// allocates a model-sized array: the frame's payload is recycled storage
// (serveConn), decoded into a push whose gradient arrays are lent for the
// call (service.Call), and the reply is encoded into the outgoing frame
// itself, which keeps the arrays of a reply served from a model snapshot by
// reference: a full pull leaves as frame header, head, model, tail in one
// vectored write, the model bytes never copied in user space, under a lease
// released once the write is done or has failed (a peer that never reads
// pins that one snapshot). The payload is not read once handle returns. A
// payload that fails to decode only fails this request — frame boundaries
// are length-delimited, so the session survives.
func (sess *session) handle(f frame) {
	op, resp := service.OpTask, fTaskResp
	switch f.typ {
	case fPush:
		op, resp = service.OpPush, fPushAck
	case fStats:
		op, resp = service.OpStats, fStatsResp
	}
	out := newFrameOut()
	defer out.release()
	ctx := sess.callCtx()
	if op == service.OpTask {
		lease := &service.Lease{Context: ctx} // never pooled: what a call derives from its context may outlive it
		defer lease.Release()
		ctx = lease
	}
	if err := service.Call(ctx, sess.svc, op, sess.codec, bytes.NewReader(f.payload), out); err != nil {
		sess.writeError(f.corr, err)
		return
	}
	if err := sess.send(resp, f.corr, out); err != nil {
		sess.srv.logf("stream: worker %d: write %s: %v", sess.workerID, resp, err)
		sess.close()
	}
}

// callCtx is the context dispatched calls run under: the server's lifecycle
// context, plus the session's hello-frame credentials when any were sent.
func (sess *session) callCtx() context.Context {
	if sess.creds == (service.Credentials{}) {
		return sess.srv.ctx
	}
	return service.WithCredentials(sess.srv.ctx, sess.creds)
}

// write serializes one frame onto the connection.
func (sess *session) write(f frame) error {
	sess.writeMu.Lock()
	defer sess.writeMu.Unlock()
	return writeFrame(sess.conn, f)
}

// send is write for a frame assembled in place.
func (sess *session) send(typ frameType, corr uint32, out *frameOut) error {
	sess.writeMu.Lock()
	defer sess.writeMu.Unlock()
	return out.writeTo(sess.conn, typ, corr)
}

// writeError answers corr with a structured error frame (best effort).
func (sess *session) writeError(corr uint32, err error) {
	body, _ := json.Marshal(protocol.AsError(err))
	_ = sess.write(frame{typ: fError, corr: corr, payload: body})
}

// sendGoAway tells the client this session is ending (best effort).
func (sess *session) sendGoAway(reason string) {
	body, _ := json.Marshal(goAwayPayload{Reason: reason})
	_ = sess.write(frame{typ: fGoAway, payload: body})
}

// enqueueAnnounce hands an encoded announcement to the session's writer
// without ever blocking the broadcaster; a full queue drops its oldest
// entry.
func (sess *session) enqueueAnnounce(payload []byte) {
	select {
	case <-sess.done:
		return
	default:
	}
	sess.annMu.Lock()
	if len(sess.annQueue) == announceBuffer {
		sess.annQueue = append(sess.annQueue[:0], sess.annQueue[1:]...)
	}
	sess.annQueue = append(sess.annQueue, payload)
	sess.annMu.Unlock()
	select {
	case sess.annReady <- struct{}{}:
	default:
	}
}

// announceLoop writes queued announcements in order until the session ends.
func (sess *session) announceLoop() {
	for {
		select {
		case <-sess.done:
			return
		case <-sess.annReady:
		}
		for {
			sess.annMu.Lock()
			if len(sess.annQueue) == 0 {
				sess.annMu.Unlock()
				break
			}
			payload := sess.annQueue[0]
			sess.annQueue = append(sess.annQueue[:0], sess.annQueue[1:]...)
			sess.annMu.Unlock()
			if err := sess.write(frame{typ: fAnnounce, payload: payload}); err != nil {
				sess.close()
				return
			}
		}
	}
}

func (sess *session) close() {
	sess.once.Do(func() {
		close(sess.done)
		_ = sess.conn.Close()
	})
}
