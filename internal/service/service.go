// Package service defines FLeet's transport-agnostic serving contract and
// the interceptor machinery that composes cross-cutting concerns around it.
//
// A Service is anything that can serve the Figure-2 learning-task protocol:
// the in-process parameter server (*server.Server), a remote server behind
// the HTTP client (*worker.Client), or any of those wrapped in interceptors.
// Because workers, the HTTP layer and the simulation drivers all program
// against Service, a concern added as an Interceptor — logging, metrics,
// rate limiting, deadlines, batching, caching — applies uniformly to every
// transport without touching the server's hot path.
package service

import (
	"context"

	"fleet/internal/protocol"
)

// Service is the FLeet serving contract: the three operations of the
// learning-task protocol, context-aware and symmetric across transports.
// Implementations must be safe for concurrent use.
type Service interface {
	// RequestTask is step (1)→(4): the worker announces itself and receives
	// either a rejection by the controller or the model plus batch size.
	RequestTask(ctx context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error)
	// PushGradient is step (5): the worker uploads its gradient and cost
	// measurements and receives the applied scale and staleness.
	//
	// The push's gradient arrays (Gradient and the sparse forms) are lent for
	// the call, every one whatever its size: a wire endpoint (Call) decodes
	// them into recycled storage and writes it again once the call has
	// returned, and an edge reuses its forward's sum, indices and values the
	// same way. An implementation finishes every read of them before it
	// returns and copies whatever it keeps (a retained window member, a
	// noised gradient). TimeFeatures, EnergyFeatures and
	// LabelCounts are the push's own and may be kept (I-Prof keeps the
	// feature vectors).
	PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error)
	// Stats returns the server's diagnostic snapshot.
	Stats(ctx context.Context) (*protocol.Stats, error)
}

// Interceptor decorates a Service with one cross-cutting concern.
type Interceptor func(Service) Service

// Chain wraps svc in the given interceptors; the first interceptor becomes
// the outermost layer, i.e. Chain(s, a, b) serves requests as a(b(s)).
func Chain(svc Service, interceptors ...Interceptor) Service {
	for i := len(interceptors) - 1; i >= 0; i-- {
		svc = interceptors[i](svc)
	}
	return svc
}

// CallInfo describes one service call to an Around hook.
type CallInfo struct {
	// Method is "RequestTask", "PushGradient" or "Stats".
	Method string
	// WorkerID identifies the calling worker; -1 for Stats.
	WorkerID int
}

// Around builds an interceptor from a single hook that runs around every
// method uniformly. The hook receives the call's context and metadata plus
// a continuation invoking the next layer; it may short-circuit by not
// calling next, rewrite the context, or translate results. All built-in
// interceptors are Around hooks, and custom ones can be too.
func Around(hook func(ctx context.Context, info CallInfo, next func(context.Context) (interface{}, error)) (interface{}, error)) Interceptor {
	return func(next Service) Service {
		return &around{next: next, hook: hook}
	}
}

type around struct {
	next Service
	hook func(ctx context.Context, info CallInfo, next func(context.Context) (interface{}, error)) (interface{}, error)
}

func (a *around) RequestTask(ctx context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	v, err := a.hook(ctx, CallInfo{Method: "RequestTask", WorkerID: req.WorkerID},
		func(ctx context.Context) (interface{}, error) { return a.next.RequestTask(ctx, req) })
	resp, _ := v.(*protocol.TaskResponse)
	return resp, hookResultErr(err, resp != nil, "RequestTask")
}

func (a *around) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	v, err := a.hook(ctx, CallInfo{Method: "PushGradient", WorkerID: push.WorkerID},
		func(ctx context.Context) (interface{}, error) { return a.next.PushGradient(ctx, push) })
	ack, _ := v.(*protocol.PushAck)
	return ack, hookResultErr(err, ack != nil, "PushGradient")
}

func (a *around) Stats(ctx context.Context) (*protocol.Stats, error) {
	v, err := a.hook(ctx, CallInfo{Method: "Stats", WorkerID: -1},
		func(ctx context.Context) (interface{}, error) { return a.next.Stats(ctx) })
	stats, _ := v.(*protocol.Stats)
	return stats, hookResultErr(err, stats != nil, "Stats")
}

// hookResultErr guards the Around contract: a hook that returns no error
// must return a non-nil value of the method's response type (the value
// next produced, or a compatible replacement when short-circuiting).
// Anything else becomes a structured internal error instead of a nil
// response that would crash callers downstream.
func hookResultErr(err error, haveResult bool, method string) error {
	if err == nil && !haveResult {
		return protocol.Errorf(protocol.CodeInternal,
			"service: interceptor returned no %s result", method)
	}
	return err
}
