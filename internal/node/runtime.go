package node

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fleet/internal/aggtree"
	"fleet/internal/protocol"
	"fleet/internal/server"
	"fleet/internal/service"
	"fleet/internal/stream"
)

// State is a Runtime's position in the canonical lifecycle.
type State int32

const (
	// StateNew: compiled, not yet serving.
	StateNew State = iota
	// StateServing: listeners bound (or an embedded node live).
	StateServing
	// StateDraining: Drain began — listeners stop accepting, in-flight
	// requests run to completion.
	StateDraining
	// StateDrained: Drain completed; checkpoint/flush may still run.
	StateDrained
	// StateClosed: terminal. Every entry path is idempotent.
	StateClosed
)

func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateServing:
		return "serving"
	case StateDraining:
		return "draining"
	case StateDrained:
		return "drained"
	case StateClosed:
		return "closed"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Child is a sub-unit driven by the parent's lifecycle: a tenant's
// serving stack behind the parent's listeners. It has no listeners or
// drain of its own — the parent's Drain covers its in-flight requests —
// but its durable state is checkpointed and its background writers are
// closed by the parent's Checkpoint/Close steps.
type Child struct {
	// Name identifies the child in error wraps ("tenant %s: ...").
	Name string
	// Server is the child's own parameter server.
	Server *server.Server
	// Checkpoint writes the child's durable snapshot (nil: stateless).
	Checkpoint func() (string, error)
	// Close flushes and stops the child's background writers.
	Close func() error
}

// Assembly is the compiled form of a Spec: every hook the lifecycle
// machine drives, with nil members simply skipped. FromSpec builds one;
// tests (and embedders with hand-made services) may construct their own
// and pass it to New.
type Assembly struct {
	// Name prefixes every log line.
	Name string
	// Service is the composed serving surface (interceptors included).
	Service service.Service
	// Server is the underlying parameter server when the node owns one
	// (single-model roots; nil for edges, multi-tenant roots — whose
	// servers are their Children's — and hand-made assemblies).
	Server *server.Server
	// EdgeNode is the underlying aggregation-tier node (edges only).
	EdgeNode *aggtree.Node

	// Transport is "http", "stream", "both" or "none"; "" means "http".
	Transport  string
	Addr       string
	StreamAddr string
	// Drain bounds the whole graceful-shutdown sequence.
	Drain time.Duration

	// Handler overrides the HTTP handler (multi-tenant routing); nil
	// serves server.NewHandler(Service).
	Handler http.Handler
	// Resolver maps a stream hello's tenant name onto its serving unit;
	// nil serves every session with Service.
	Resolver func(tenant string) (service.Service, string, error)
	// Announce registers the stream server's broadcast on the model
	// sources (root snapshots, edge relay announces), each under the
	// tenant label its sessions carry: "" on a single-tenant node.
	Announce func(broadcast func(tenant string, ann protocol.ModelAnnounce))

	// Sync runs before the listeners bind (edges: refuse to serve leaves
	// a model the node does not have).
	Sync func(ctx context.Context) error
	// Checkpoint writes a durable state snapshot (nil: no crash safety).
	// Shutdown calls it at the signal, before the drain — if the drain
	// deadline is exceeded (or the process dies mid-drain) the state as of
	// the signal is already durable — and again after the drain.
	Checkpoint func() (string, error)
	// Flush forwards the partial aggregation window upstream after the
	// drain (edges), so no acked leaf gradient is stranded.
	Flush func(ctx context.Context) error
	// CloseUpstream closes the persistent upstream session (edges over
	// the stream transport).
	CloseUpstream func() error
	// Closer flushes and stops background checkpoint writers at exit.
	Closer func() error
	// DrainedMsg is the clean-exit log line (nil: "drained cleanly").
	DrainedMsg func() string

	// Banner is logged once serving begins.
	Banner string
	Logf   func(format string, args ...interface{})

	// HTTPReady/StreamReady, when non-nil, receive the bound addresses
	// once the listeners are up (tests bind ":0").
	HTTPReady   chan<- net.Addr
	StreamReady chan<- net.Addr

	// Children are tenant sub-units driven by this runtime's lifecycle.
	Children []Child
}

// Runtime owns one assembled serving unit and drives it through the
// canonical lifecycle. The drain ordering — stream goaway first, then
// HTTP shutdown, then checkpoint, then window flush, then upstream close
// — lives here and nowhere else.
type Runtime struct {
	asm   Assembly
	state atomic.Int32

	mu        sync.Mutex
	httpSrv   *http.Server
	streamSrv *stream.Server
	boundAddr net.Addr
	errc      chan error

	closeOnce sync.Once
	closeErr  error

	// shutStream/shutHTTP are the drain steps; tests in this package
	// override them to record ordering. They default to the listeners'
	// Shutdown methods in Start.
	shutStream func(ctx context.Context) error
	shutHTTP   func(ctx context.Context) error
}

// New wraps a hand-made Assembly in a Runtime. Most callers want
// FromSpec instead.
func New(asm Assembly) *Runtime {
	return &Runtime{asm: asm}
}

// Assembly exposes the compiled assembly, read-mostly: tests and the
// benchmark doctor it (services, log sink, ready channels) before Run.
func (r *Runtime) Assembly() *Assembly { return &r.asm }

// Server returns the underlying parameter server (nil for edges and
// multi-tenant roots).
func (r *Runtime) Server() *server.Server { return r.asm.Server }

// Service returns the composed serving surface.
func (r *Runtime) Service() service.Service { return r.asm.Service }

// State reports the runtime's lifecycle position.
func (r *Runtime) State() State { return State(r.state.Load()) }

// Addr returns the primary bound address once Start has succeeded: the
// HTTP listener's, or the stream listener's when HTTP is disabled.
func (r *Runtime) Addr() net.Addr {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.boundAddr
}

func (r *Runtime) logf(format string, args ...interface{}) {
	if r.asm.Logf != nil {
		r.asm.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

func (r *Runtime) transport() string {
	if r.asm.Transport == "" {
		return "http"
	}
	return r.asm.Transport
}

// Start syncs with the upstream (edges), binds the listeners, and begins
// serving. It logs its own failures (under the assembly's name) and
// moves the runtime to StateServing on success.
func (r *Runtime) Start(ctx context.Context) error {
	if s := r.State(); s != StateNew {
		return fmt.Errorf("%s: Start in state %s", r.asm.Name, s)
	}
	// Fail fast: an edge that cannot reach its upstream refuses to serve
	// leaves a model it does not have.
	if r.asm.Sync != nil {
		if err := r.asm.Sync(ctx); err != nil {
			r.logf("%s: upstream sync: %v", r.asm.Name, err)
			return err
		}
	}
	transport := r.transport()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.errc = make(chan error, 2)
	if transport == "http" || transport == "both" {
		ln, err := net.Listen("tcp", r.asm.Addr)
		if err != nil {
			r.logf("%s: %v", r.asm.Name, err)
			return err
		}
		handler := r.asm.Handler
		if handler == nil {
			handler = server.NewHandler(r.asm.Service)
		}
		httpSrv := &http.Server{
			Handler:           handler,
			ReadHeaderTimeout: 10 * time.Second,
		}
		r.httpSrv = httpSrv
		r.shutHTTP = httpSrv.Shutdown
		go func() { r.errc <- httpSrv.Serve(ln) }()
		r.boundAddr = ln.Addr()
		if r.asm.HTTPReady != nil {
			r.asm.HTTPReady <- ln.Addr()
		}
	}
	if transport == "stream" || transport == "both" {
		sln, err := net.Listen("tcp", r.asm.StreamAddr)
		if err != nil {
			r.logf("%s: %v", r.asm.Name, err)
			if r.httpSrv != nil {
				_ = r.httpSrv.Close()
			}
			return err
		}
		streamSrv := stream.NewServer(r.asm.Service, stream.Options{Logf: r.asm.Logf, Resolver: r.asm.Resolver})
		if r.asm.Announce != nil {
			// Drain-time model snapshots broadcast to the subscribed
			// sessions of their tenant — the push half of the streaming
			// transport.
			r.asm.Announce(streamSrv.BroadcastTenant)
		}
		r.streamSrv = streamSrv
		r.shutStream = streamSrv.Shutdown
		go func() { r.errc <- streamSrv.Serve(sln) }()
		if r.boundAddr == nil {
			r.boundAddr = sln.Addr()
		}
		if r.asm.StreamReady != nil {
			r.asm.StreamReady <- sln.Addr()
		}
	}
	if r.asm.Banner != "" {
		r.logf("%s", r.asm.Banner)
	}
	r.state.Store(int32(StateServing))
	return nil
}

// Run is the binaries' serve loop: Start, report readiness, wait for
// cancellation or a listener failure, then run the canonical Shutdown.
// The returned code is the process exit code.
func (r *Runtime) Run(ctx context.Context, ready chan<- net.Addr) int {
	if err := r.Start(ctx); err != nil {
		// Start released its listeners; what the compiler started — the
		// checkpoint writer, an edge's upstream session — is closed here.
		_ = r.Close()
		return 1
	}
	if ready != nil {
		ready <- r.Addr()
	}
	select {
	case err := <-r.errc:
		// Serve only returns on listener failure here; ErrServerClosed
		// cannot arrive before a Shutdown call.
		r.logf("%s: %v", r.asm.Name, err)
		_ = r.Kill()
		return 1
	case <-ctx.Done():
		return r.Shutdown(context.Background())
	}
}

// Shutdown is the canonical teardown, defined once for every role:
//
//  1. pre-drain checkpoint (best effort — durability as of the signal)
//  2. Drain: stream goaway first, then HTTP shutdown
//  3. Checkpoint: the pushes that committed during the drain are durable
//  4. Flush: the partial window goes upstream (edges)
//  5. Close: upstream session, background writers, children
//
// A drain failure aborts the remaining durability steps (the pre-drain
// checkpoint already covered the signal point) but still closes; a flush
// failure is reported in the exit code but never blocks the close. The
// drain, checkpoint and flush all share one deadline derived from ctx
// and the assembly's Drain.
func (r *Runtime) Shutdown(ctx context.Context) int {
	name := r.asm.Name
	if r.asm.Checkpoint != nil {
		if path, err := r.Checkpoint(); err != nil {
			r.logf("%s: pre-drain checkpoint failed: %v", name, err)
		} else {
			r.logf("%s: checkpointed to %s", name, path)
		}
	}
	r.logf("%s: shutting down, draining in-flight requests (deadline %s)", name, r.asm.Drain)
	shutdownCtx, cancel := context.WithTimeout(ctx, r.asm.Drain)
	defer cancel()
	if err := r.Drain(shutdownCtx); err != nil {
		_ = r.Close()
		return 1
	}
	if r.asm.Checkpoint != nil {
		path, err := r.Checkpoint()
		if err != nil {
			r.logf("%s: post-drain checkpoint failed: %v", name, err)
			_ = r.Close()
			return 1
		}
		r.logf("%s: final checkpoint %s", name, path)
	}
	code := 0
	if r.asm.Flush != nil {
		// Every in-flight push is committed now; the partial window goes
		// upstream so no acked leaf gradient is stranded.
		if err := r.asm.Flush(shutdownCtx); err != nil {
			r.logf("%s: final window flush: %v", name, err)
			code = 1
		}
	}
	_ = r.Close()
	if code == 0 {
		msg := "drained cleanly"
		if r.asm.DrainedMsg != nil {
			msg = r.asm.DrainedMsg()
		}
		r.logf("%s: %s", name, msg)
	}
	return code
}

// Drain stops accepting new work and waits for in-flight work, bounded
// by ctx: streaming sessions drain first, each told "server draining"
// with a final goaway frame so workers reconnect to the next incarnation
// instead of timing out on a dead socket, then the HTTP listener shuts
// down. The first failure aborts and is returned (and logged).
func (r *Runtime) Drain(ctx context.Context) error {
	if s := r.State(); s == StateClosed {
		return fmt.Errorf("%s: Drain in state %s", r.asm.Name, s)
	}
	r.state.CompareAndSwap(int32(StateServing), int32(StateDraining))
	r.mu.Lock()
	shutStream, shutHTTP := r.shutStream, r.shutHTTP
	r.mu.Unlock()
	if shutStream != nil {
		if err := shutStream(ctx); err != nil {
			r.logf("%s: stream drain deadline exceeded: %v", r.asm.Name, err)
			return err
		}
	}
	if shutHTTP != nil {
		if err := shutHTTP(ctx); err != nil {
			r.logf("%s: drain deadline exceeded: %v", r.asm.Name, err)
			return err
		}
	}
	r.state.CompareAndSwap(int32(StateDraining), int32(StateDrained))
	return nil
}

// Checkpoint writes the durable snapshot: the node's own, or — for a
// multi-tenant parent — every child's, best effort, returning the first
// error after attempting all of them (shutdown wants durability
// everywhere, not fail-fast). Safe to call concurrently with Drain; the
// underlying server serializes its own state capture.
func (r *Runtime) Checkpoint() (string, error) {
	if s := r.State(); s == StateClosed {
		return "", fmt.Errorf("%s: Checkpoint in state %s", r.asm.Name, s)
	}
	if r.asm.Checkpoint == nil {
		return "", nil
	}
	return r.asm.Checkpoint()
}

// Close releases everything the runtime owns — the upstream session,
// background checkpoint writers, children — exactly once; repeat calls
// return the first call's error. Close never drains: callers wanting a
// graceful exit go through Shutdown.
func (r *Runtime) Close() error {
	r.closeOnce.Do(func() {
		r.state.Store(int32(StateClosed))
		if r.asm.CloseUpstream != nil {
			_ = r.asm.CloseUpstream()
		}
		var firstErr error
		if r.asm.Closer != nil {
			firstErr = r.asm.Closer()
		}
		// Every child, best effort, first error reported.
		for _, c := range r.asm.Children {
			if c.Close == nil {
				continue
			}
			if err := c.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("tenant %s: %w", c.Name, err)
			}
		}
		if firstErr != nil {
			r.logf("%s: closing checkpoint writers: %v", r.asm.Name, firstErr)
		}
		r.closeErr = firstErr
	})
	return r.closeErr
}

// Kill is the abrupt teardown the restart harness models: listeners (if
// any) close immediately, in-flight work is abandoned, and the node's
// background writers drain without any drain/checkpoint/flush courtesy —
// the durability point is whatever the periodic checkpoints already
// made durable. The successor is a fresh FromSpec of the same Spec.
func (r *Runtime) Kill() error {
	r.mu.Lock()
	httpSrv, streamSrv := r.httpSrv, r.streamSrv
	r.mu.Unlock()
	if httpSrv != nil {
		_ = httpSrv.Close()
	}
	if streamSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_ = streamSrv.Shutdown(ctx)
		cancel()
	}
	return r.Close()
}
