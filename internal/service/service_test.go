package service

import (
	"bytes"
	"context"
	"errors"
	"log"
	"strings"
	"sync"
	"testing"
	"time"

	"fleet/internal/protocol"
)

// fake is a scriptable Service for interceptor tests.
type fake struct {
	mu    sync.Mutex
	calls []string
	// fail makes every call return this error.
	fail error
	// panicWith makes every call panic.
	panicWith interface{}
	// block makes every call wait for ctx cancellation.
	block bool
}

func (f *fake) record(method string) {
	f.mu.Lock()
	f.calls = append(f.calls, method)
	f.mu.Unlock()
}

func (f *fake) serve(ctx context.Context, method string) error {
	f.record(method)
	if f.panicWith != nil {
		panic(f.panicWith)
	}
	if f.block {
		<-ctx.Done()
		return ctx.Err()
	}
	return f.fail
}

func (f *fake) RequestTask(ctx context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	if err := f.serve(ctx, "RequestTask"); err != nil {
		return nil, err
	}
	return &protocol.TaskResponse{Accepted: true, BatchSize: 7}, nil
}

func (f *fake) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	if err := f.serve(ctx, "PushGradient"); err != nil {
		return nil, err
	}
	return &protocol.PushAck{Applied: true}, nil
}

func (f *fake) Stats(ctx context.Context) (*protocol.Stats, error) {
	if err := f.serve(ctx, "Stats"); err != nil {
		return nil, err
	}
	return &protocol.Stats{GradientsIn: 42}, nil
}

func TestChainOrder(t *testing.T) {
	var order []string
	tag := func(name string) Interceptor {
		return Around(func(ctx context.Context, info CallInfo, next func(context.Context) (interface{}, error)) (interface{}, error) {
			order = append(order, name)
			return next(ctx)
		})
	}
	svc := Chain(&fake{}, tag("outer"), tag("inner"))
	if _, err := svc.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("interceptor order = %v, want [outer inner]", order)
	}
}

func TestAroundPassesResultsThrough(t *testing.T) {
	svc := Chain(&fake{}, Around(func(ctx context.Context, info CallInfo, next func(context.Context) (interface{}, error)) (interface{}, error) {
		return next(ctx)
	}))
	resp, err := svc.RequestTask(context.Background(), &protocol.TaskRequest{WorkerID: 5})
	if err != nil || !resp.Accepted || resp.BatchSize != 7 {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
	ack, err := svc.PushGradient(context.Background(), &protocol.GradientPush{WorkerID: 5})
	if err != nil || !ack.Applied {
		t.Fatalf("ack=%+v err=%v", ack, err)
	}
	stats, err := svc.Stats(context.Background())
	if err != nil || stats.GradientsIn != 42 {
		t.Fatalf("stats=%+v err=%v", stats, err)
	}
}

func TestLoggingWritesMethodAndWorker(t *testing.T) {
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	svc := Chain(&fake{}, Logging(logger))
	if _, err := svc.RequestTask(context.Background(), &protocol.TaskRequest{WorkerID: 9}); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if !strings.Contains(line, "RequestTask") || !strings.Contains(line, "worker=9") || !strings.Contains(line, "ok") {
		t.Fatalf("log line = %q", line)
	}
	buf.Reset()
	failing := Chain(&fake{fail: errors.New("boom")}, Logging(logger))
	if _, err := failing.Stats(context.Background()); err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(buf.String(), "error") {
		t.Fatalf("error not logged: %q", buf.String())
	}
}

func TestRecoveryConvertsPanics(t *testing.T) {
	svc := Chain(&fake{panicWith: "kaboom"}, Recovery())
	_, err := svc.RequestTask(context.Background(), &protocol.TaskRequest{})
	if err == nil {
		t.Fatal("want error from panic")
	}
	var apiErr *protocol.Error
	if !errors.As(err, &apiErr) || apiErr.Code != protocol.CodeInternal {
		t.Fatalf("want structured internal error, got %v", err)
	}
	if !strings.Contains(apiErr.Message, "kaboom") {
		t.Fatalf("panic value lost: %v", apiErr)
	}
}

func TestRateLimitPerWorker(t *testing.T) {
	// 1 req/s with burst 2: the third immediate call from one worker must
	// be rejected, while another worker and Stats stay unaffected.
	svc := Chain(&fake{}, RateLimit(1, 2))
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := svc.PushGradient(ctx, &protocol.GradientPush{WorkerID: 1}); err != nil {
			t.Fatalf("burst call %d: %v", i, err)
		}
	}
	_, err := svc.PushGradient(ctx, &protocol.GradientPush{WorkerID: 1})
	var apiErr *protocol.Error
	if !errors.As(err, &apiErr) || apiErr.Code != protocol.CodeResourceExhausted {
		t.Fatalf("want resource_exhausted, got %v", err)
	}
	if _, err := svc.PushGradient(ctx, &protocol.GradientPush{WorkerID: 2}); err != nil {
		t.Fatalf("other worker limited: %v", err)
	}
	if _, err := svc.Stats(ctx); err != nil {
		t.Fatalf("Stats must be exempt: %v", err)
	}
}

func TestDeadlineBoundsCalls(t *testing.T) {
	svc := Chain(&fake{block: true}, Deadline(10*time.Millisecond))
	start := time.Now()
	_, err := svc.RequestTask(context.Background(), &protocol.TaskRequest{})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline not enforced: %v", elapsed)
	}
	var apiErr *protocol.Error
	if !errors.As(err, &apiErr) || apiErr.Code != protocol.CodeDeadlineExceeded {
		t.Fatalf("want deadline_exceeded, got %v", err)
	}
}

func TestAroundGuardsNilResults(t *testing.T) {
	// A hook that short-circuits without producing a result (or with the
	// wrong type) must surface a structured error, not a nil response that
	// would crash the worker.
	for name, hook := range map[string]func(ctx context.Context, info CallInfo, next func(context.Context) (interface{}, error)) (interface{}, error){
		"nil-nil": func(ctx context.Context, info CallInfo, next func(context.Context) (interface{}, error)) (interface{}, error) {
			return nil, nil
		},
		"wrong-type": func(ctx context.Context, info CallInfo, next func(context.Context) (interface{}, error)) (interface{}, error) {
			return protocol.TaskResponse{}, nil
		},
		"typed-nil": func(ctx context.Context, info CallInfo, next func(context.Context) (interface{}, error)) (interface{}, error) {
			return (*protocol.TaskResponse)(nil), nil
		},
	} {
		svc := Chain(&fake{}, Around(hook))
		resp, err := svc.RequestTask(context.Background(), &protocol.TaskRequest{})
		if resp != nil {
			t.Fatalf("%s: non-nil response %+v", name, resp)
		}
		var apiErr *protocol.Error
		if !errors.As(err, &apiErr) || apiErr.Code != protocol.CodeInternal {
			t.Fatalf("%s: want structured internal error, got %v", name, err)
		}
	}
}

func TestLimiterEvictsIdleBuckets(t *testing.T) {
	l := &limiter{perSec: 10, burst: 5, buckets: make(map[int]*bucket)}
	now := time.Now()
	// Idle long enough to have refilled (burst/perSec = 0.5s); must go.
	l.buckets[1] = &bucket{tokens: 0, last: now.Add(-time.Second)}
	// Recently active; must stay.
	l.buckets[2] = &bucket{tokens: 1, last: now.Add(-100 * time.Millisecond)}
	l.evict(now)
	if _, ok := l.buckets[1]; ok {
		t.Error("idle bucket not evicted")
	}
	if _, ok := l.buckets[2]; !ok {
		t.Error("active bucket evicted")
	}
	// perSec <= 0 skips the idle pass (and must not panic on the Inf idle
	// window); below the cap nothing else is dropped.
	l0 := &limiter{perSec: 0, burst: 1, buckets: map[int]*bucket{7: {last: now.Add(-time.Hour)}}}
	l0.evict(now)
	if len(l0.buckets) != 1 {
		t.Error("non-refilling limiter below cap must not evict")
	}
}

func TestRateLimitZeroDisables(t *testing.T) {
	// perSec <= 0 means "no limiting" (the -rate-limit flag convention),
	// not "lock everyone out after the burst".
	svc := Chain(&fake{}, RateLimit(0, 1))
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := svc.PushGradient(ctx, &protocol.GradientPush{WorkerID: 1}); err != nil {
			t.Fatalf("call %d limited by disabled limiter: %v", i, err)
		}
	}
}

func TestLimiterBucketMapHardBound(t *testing.T) {
	// With a refill so slow nothing ever idles out, cycling fresh worker
	// ids (attacker-controlled on the wire) must still not grow the map
	// past the cap.
	l := &limiter{perSec: 1e-9, burst: 1000, buckets: make(map[int]*bucket)}
	now := time.Now()
	for id := 0; id < maxRateLimitBuckets+100; id++ {
		l.allow(id, now)
	}
	if len(l.buckets) > maxRateLimitBuckets {
		t.Fatalf("bucket map grew to %d, cap %d", len(l.buckets), maxRateLimitBuckets)
	}
}

func TestDeadlineFastCallPasses(t *testing.T) {
	svc := Chain(&fake{}, Deadline(time.Second))
	resp, err := svc.RequestTask(context.Background(), &protocol.TaskRequest{})
	if err != nil || !resp.Accepted {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
}
