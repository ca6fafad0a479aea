package server

import (
	"context"
	"errors"
	"io"
	"log"
	"maps"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"fleet/internal/protocol"
	"fleet/internal/service"
)

// The in-process server is itself a Service; interceptors compose around it.
var _ service.Service = (*Server)(nil)

// NewHandler exposes any Service — typically a *Server wrapped in an
// interceptor chain — over the FLeet wire protocol:
//
//	POST /v1/task, /v1/gradient — Content-Type negotiated (flat, JSON),
//	GET  /v1/stats              — Accept negotiated,
//
// with structured JSON error bodies and mapped status codes, for unknown
// routes too.
func NewHandler(svc service.Service) http.Handler { return NewEndpoint(svc) }

// Endpoint is the HTTP envelope around service.Call for one Service: method
// and codec negotiation, the request-size cap, the per-codec wire tally, and
// errors as JSON bodies with mapped statuses. As an http.Handler it serves
// /v1/<route>; a router that owns the path (the tenant registry's
// /v1/t/<tenant>/<route>) calls Serve with the route it resolved.
type Endpoint struct {
	svc   service.Service
	tally *wireTally
}

// NewEndpoint builds the endpoint serving svc.
func NewEndpoint(svc service.Service) *Endpoint {
	tally := newWireTally()
	return &Endpoint{svc: stampedStats{svc, tally}, tally: tally}
}

// ServeHTTP serves /v1/task, /v1/gradient and /v1/stats.
func (e *Endpoint) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Anything else comes back whole and is no route; Serve says so.
	route, _ := strings.CutPrefix(r.URL.Path, "/v1/")
	e.Serve(r.Context(), w, r, route)
}

// Serve runs one exchange of the named route ("task", "gradient", "stats")
// under ctx, which carries whatever credentials the router attached.
// Request and response payload bytes are tallied per codec (wire-level:
// exactly what traveled, compression included).
func (e *Endpoint) Serve(ctx context.Context, w http.ResponseWriter, r *http.Request, route string) {
	op, method, negotiated := service.OpTask, http.MethodPost, "Content-Type"
	switch route {
	case "task":
	case "gradient":
		op = service.OpPush
	case "stats":
		op, method, negotiated = service.OpStats, http.MethodGet, "Accept"
	default:
		protocol.WriteError(w, protocol.Errorf(protocol.CodeInvalidArgument,
			"unknown route %q (want task, gradient or stats under /v1/)", route))
		return
	}
	if r.Method != method {
		protocol.WriteError(w, protocol.Errorf(protocol.CodeMethodNotAllowed, "%s required", method))
		return
	}
	codec, err := protocol.CodecForContentType(r.Header.Get(negotiated))
	if err != nil {
		protocol.WriteError(w, err)
		return
	}
	body := &countingBody{r: http.MaxBytesReader(w, r.Body, protocol.MaxMessageBytes)}
	cw := &countingWriter{ResponseWriter: w}
	w.Header().Set("Content-Type", codec.ContentType())
	if op == service.OpTask {
		lease := &service.Lease{Context: ctx} // encoded into w before Call returns: a full pull only borrows
		defer lease.Release()
		ctx = lease
	}
	err = service.Call(ctx, e.svc, op, codec, body, cw)
	e.tally.add(codec.ContentType(), body.n, cw.n)
	switch {
	case err == nil:
	case cw.n == 0:
		protocol.WriteError(w, err)
	default:
		// The reply is already on the wire, so the status can't change;
		// count and log it so the failure is visible server-side instead
		// of surfacing only as an opaque decode error on the client.
		e.tally.replyErrs.Add(1)
		log.Printf("fleet: encoding %s response: %v", codec.ContentType(), err)
	}
}

// stampedStats stamps the endpoint's wire tally into the Stats it serves.
// The Stats value is freshly built per call, so this mutates no shared
// state.
type stampedStats struct {
	service.Service
	tally *wireTally
}

func (s stampedStats) Stats(ctx context.Context) (*protocol.Stats, error) {
	st, err := s.Service.Stats(ctx)
	if err == nil {
		s.tally.stamp(st)
	}
	return st, err
}

// wireTally accumulates wire bytes per codec content type across an
// endpoint's routes: uplink counts every request body byte actually read
// (decoded payloads and rejected ones alike), downlink counts the encoded
// reply bodies (structured error bodies are not payload traffic and are
// excluded). replyErrs counts the replies that failed after their first
// byte was written.
type wireTally struct {
	mu        sync.Mutex
	up        map[string]int64
	down      map[string]int64
	replyErrs atomic.Int64
}

func newWireTally() *wireTally {
	return &wireTally{up: map[string]int64{}, down: map[string]int64{}}
}

func (t *wireTally) add(codec string, up, down int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if up > 0 {
		t.up[codec] += up
	}
	if down > 0 {
		t.down[codec] += down
	}
}

// stamp copies the tally into a freshly built Stats value.
func (t *wireTally) stamp(st *protocol.Stats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st.ReplyWriteErrors = t.replyErrs.Load()
	if len(t.up) > 0 {
		st.WireUplinkByCodec = maps.Clone(t.up)
	}
	if len(t.down) > 0 {
		st.WireDownlinkByCodec = maps.Clone(t.down)
	}
}

// countingBody wraps a capped request body, counting the bytes the decoder
// actually consumed off the wire and reporting the cap as the structured
// payload_too_large every transport uses for its size limit.
type countingBody struct {
	r io.Reader
	n int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	if err != nil && err != io.EOF { // off the per-Read path: the target escapes
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			err = protocol.Errorf(protocol.CodePayloadTooLarge, "request body exceeds %d bytes", mbe.Limit)
		}
	}
	return n, err
}

// countingWriter wraps a ResponseWriter, counting encoded reply bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}
