package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"fleet/internal/node"
	"fleet/internal/protocol"
	"fleet/internal/service"
)

// span is one timed interval at a layer boundary. Spans of one round share
// Trace (the round's index in the traced window); Parent is the span that
// was open when this one began (0: a root span).
type span struct {
	Trace  int
	Span   int
	Parent int
	Name   string
	Node   string
	Start  int64 // ns since the tracer's epoch
	End    int64
}

// tracer records spans from the benchmark's own wrappers around the calls
// into each layer: a client-side service wrapper, a delegating codec, and an
// interceptor installed in front of each node's service. With one
// closed-loop client exactly one request is in flight, so the open spans
// form one stack across goroutines and "the span that caused this one" is
// simply the stack's top. Spans stay in memory until the run ends.
type tracer struct {
	mu     sync.Mutex
	on     bool
	epoch  time.Time
	round  int
	nextID int
	open   []int // indices into spans, innermost last
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin starts recording; end stops and hands the window's spans over.
func (t *tracer) begin() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.on, t.round, t.nextID, t.open = true, 0, 0, t.open[:0]
	t.spans = make([]span, 0, 1<<16)
}

func (t *tracer) end() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.on = false
	out := t.spans
	t.spans = nil
	return out
}

// enter opens a span and returns its handle (-1 while not recording).
// newRound marks the span as the first of a round.
func (t *tracer) enter(name, nodeName string, newRound bool) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	if newRound {
		t.round++
	}
	t.nextID++
	s := span{Trace: t.round, Span: t.nextID, Name: name, Node: nodeName, Start: now}
	if n := len(t.open); n > 0 {
		s.Parent = t.spans[t.open[n-1]].Span
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// exit closes the span enter returned.
func (t *tracer) exit(h int) {
	if h < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if h >= len(t.spans) {
		return // the window ended while the span was open
	}
	t.spans[h].End = now
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == h {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// tracedClient is the client-side root span of every call.
type tracedClient struct {
	next service.Service
	t    *tracer
}

func (t *tracer) wrapClient(svc service.Service) service.Service {
	return &tracedClient{next: svc, t: t}
}

func (c *tracedClient) RequestTask(ctx context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	defer c.t.exit(c.t.enter("client.pull", "client", true))
	return c.next.RequestTask(ctx, req)
}

func (c *tracedClient) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	defer c.t.exit(c.t.enter("client.push", "client", false))
	return c.next.PushGradient(ctx, push)
}

func (c *tracedClient) Stats(ctx context.Context) (*protocol.Stats, error) { return c.next.Stats(ctx) }

// tracedCodec delegates to the workload's codec, timing each call. Announce
// decodes happen on the session's read loop, not inside a call, and get
// their own name.
type tracedCodec struct {
	protocol.Codec
	t *tracer
}

func (t *tracer) wrapCodec(c protocol.Codec) protocol.Codec { return tracedCodec{Codec: c, t: t} }

func (c tracedCodec) Encode(w io.Writer, v interface{}) error {
	defer c.t.exit(c.t.enter("client.encode", "client", false))
	return c.Codec.Encode(w, v)
}

func (c tracedCodec) Decode(r io.Reader, v interface{}) error {
	name := "client.decode"
	if _, ok := v.(*protocol.ModelAnnounce); ok {
		name = "client.announce_decode"
	}
	defer c.t.exit(c.t.enter(name, "client", false))
	return c.Codec.Decode(r, v)
}

// instrument returns the assembly doctor that puts the tracing interceptor
// in front of a node's service (and of every tenant unit its resolver
// hands out) before Start; none on an untraced run (nil tracer).
func (t *tracer) instrument(nodeName string) func(*node.Assembly) {
	if t == nil {
		return nil
	}
	ic := service.Around(func(ctx context.Context, info service.CallInfo, next func(context.Context) (interface{}, error)) (interface{}, error) {
		var name string
		switch info.Method {
		case "RequestTask":
			name = "service.pull"
		case "PushGradient":
			name = "service.push"
		default:
			return next(ctx)
		}
		defer t.exit(t.enter(name, nodeName, false))
		return next(ctx)
	})
	return func(a *node.Assembly) {
		a.Service = service.Chain(a.Service, ic)
		if resolve := a.Resolver; resolve != nil {
			a.Resolver = func(tenant string) (service.Service, string, error) {
				svc, label, err := resolve(tenant)
				if err != nil {
					return nil, "", err
				}
				return service.Chain(svc, ic), label, nil
			}
		}
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are merged
// first, and clipped to the parent).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.Span]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, until := int64(0), s.Start
		for _, k := range kids {
			from, to := k.Start, k.End
			if from < until {
				from = until
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				until = to
			}
		}
		self[s.Span] = s.End - s.Start - covered
	}
	return self
}

// isClientCall reports whether s is one of the client-side root spans.
func isClientCall(s span) bool { return s.Name == "client.pull" || s.Name == "client.push" }

// traceSummary is what one traced rep says about a workload.
type traceSummary struct {
	rounds int
	// Per-round medians, µs.
	clientUs, codecUs, serviceUs, residualUs float64
	// selfUs is the mean self time per round of each (node, span name).
	selfUs map[string]float64
}

// summarize folds a traced window into per-round medians. Only complete
// rounds count: a client.pull and a client.push, both closed.
func summarize(spans []span) traceSummary {
	type round struct {
		client, codec, svc int64
		calls              int
	}
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.Span] = s
	}
	rounds := map[int]*round{}
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		r := rounds[s.Trace]
		if r == nil {
			r = &round{}
			rounds[s.Trace] = r
		}
		dur := s.End - s.Start
		parent, hasParent := byID[s.Parent]
		switch {
		case isClientCall(s):
			r.client += dur
			r.calls++
		case hasParent && isClientCall(parent):
			if strings.HasPrefix(s.Name, "service.") {
				r.svc += dur
			} else {
				r.codec += dur
			}
		}
	}
	var client, codec, svc, residual []float64
	for _, r := range rounds {
		if r.calls != 2 {
			continue
		}
		client = append(client, float64(r.client)/1e3)
		codec = append(codec, float64(r.codec)/1e3)
		svc = append(svc, float64(r.svc)/1e3)
		residual = append(residual, float64(r.client-r.codec-r.svc)/1e3)
	}
	sum := traceSummary{
		rounds:     len(client),
		clientUs:   median(client),
		codecUs:    median(codec),
		serviceUs:  median(svc),
		residualUs: median(residual),
		selfUs:     map[string]float64{},
	}
	if sum.rounds > 0 {
		for id, ns := range selfTimes(spans) {
			if s := byID[id]; s.End != 0 {
				sum.selfUs[s.Node+"/"+s.Name] += float64(ns) / 1e3 / float64(sum.rounds)
			}
		}
	}
	return sum
}

// writeSpans appends a workload's spans to path, one JSON object per line.
func writeSpans(path, workloadName string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		rec := struct {
			Trace   string `json:"trace"`
			Span    int    `json:"span"`
			Parent  int    `json:"parent"`
			Name    string `json:"name"`
			Node    string `json:"node"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
		}{fmt.Sprintf("%s#%d", workloadName, s.Trace), s.Span, s.Parent, s.Name, s.Node, s.Start, s.End}
		if err := enc.Encode(rec); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
