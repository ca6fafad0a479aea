package service

import (
	"context"
	"log"
	"sync"
	"time"

	"fleet/internal/protocol"
)

// Logging returns an interceptor that logs every call with its method,
// worker id, duration and outcome. A nil logger uses log.Default().
func Logging(logger *log.Logger) Interceptor {
	if logger == nil {
		logger = log.Default()
	}
	return Around(func(ctx context.Context, info CallInfo, next func(context.Context) (interface{}, error)) (interface{}, error) {
		start := time.Now()
		v, err := next(ctx)
		if err != nil {
			logger.Printf("fleet: %s worker=%d %.3fms error: %v",
				info.Method, info.WorkerID, float64(time.Since(start).Microseconds())/1000, err)
		} else {
			logger.Printf("fleet: %s worker=%d %.3fms ok",
				info.Method, info.WorkerID, float64(time.Since(start).Microseconds())/1000)
		}
		return v, err
	})
}

// Recovery returns an interceptor that converts panics in inner layers into
// structured CodeInternal errors, so one poisoned request cannot take down
// the serving process.
func Recovery() Interceptor {
	return Around(func(ctx context.Context, info CallInfo, next func(context.Context) (interface{}, error)) (v interface{}, err error) {
		defer func() {
			if r := recover(); r != nil {
				v = nil
				err = protocol.Errorf(protocol.CodeInternal, "%s: panic: %v", info.Method, r)
			}
		}()
		return next(ctx)
	})
}

// RateLimit returns an interceptor enforcing a per-worker token bucket of
// perSec requests per second with the given burst on RequestTask and
// PushGradient (Stats is exempt). Exceeding workers receive a structured
// CodeResourceExhausted error, which the HTTP layer maps to 429. A
// perSec <= 0 disables limiting (the fleet-server -rate-limit flag's
// convention) rather than locking every worker out after its burst.
func RateLimit(perSec float64, burst int) Interceptor {
	if perSec <= 0 {
		return func(next Service) Service { return next }
	}
	if burst < 1 {
		burst = 1
	}
	l := &limiter{perSec: perSec, burst: float64(burst), buckets: make(map[int]*bucket)}
	return Around(func(ctx context.Context, info CallInfo, next func(context.Context) (interface{}, error)) (interface{}, error) {
		if info.Method != "Stats" && !l.allow(info.WorkerID, time.Now()) {
			return nil, protocol.Errorf(protocol.CodeResourceExhausted,
				"worker %d exceeded %.3g req/s (burst %d)", info.WorkerID, perSec, burst)
		}
		return next(ctx)
	})
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxRateLimitBuckets bounds the per-worker bucket map: WorkerID arrives
// unauthenticated on the wire, so without a cap a client cycling fresh ids
// could grow the map without limit.
const maxRateLimitBuckets = 1 << 16

type limiter struct {
	mu      sync.Mutex
	perSec  float64
	burst   float64
	buckets map[int]*bucket
}

func (l *limiter) allow(workerID int, now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[workerID]
	if !ok {
		if len(l.buckets) >= maxRateLimitBuckets {
			l.evict(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[workerID] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * l.perSec
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// evict enforces the bucket cap in two passes. First it drops buckets idle
// long enough to have refilled to a full burst — removing one of those is
// indistinguishable from keeping it. If the map is still at the cap (slow
// refill rates, or an attacker cycling ids faster than they idle out), it
// falls back to dropping arbitrary entries down to 7/8 of the cap, which
// strictly bounds memory at the price of handing the evicted (mostly
// attacker-created) ids a fresh burst. The 1/8 headroom means the O(cap)
// sweep runs at most once per cap/8 inserts — amortized O(1) per call.
// Callers hold l.mu.
func (l *limiter) evict(now time.Time) {
	if l.perSec > 0 {
		idle := time.Duration(float64(time.Second) * l.burst / l.perSec)
		for id, b := range l.buckets {
			if now.Sub(b.last) >= idle {
				delete(l.buckets, id)
			}
		}
	}
	const target = maxRateLimitBuckets - maxRateLimitBuckets/8
	for id := range l.buckets {
		if len(l.buckets) < target {
			break
		}
		delete(l.buckets, id)
	}
}

// Deadline returns an interceptor bounding every call to d, composing with
// any tighter deadline already on the context. Expired calls surface as
// structured CodeDeadlineExceeded errors. Over HTTP the deadline cancels
// the in-flight request; in-process, the server honors it at its abort
// points (request entry and just before a gradient is committed), so an
// expired call is refused before it mutates server state rather than
// interrupted mid-update.
func Deadline(d time.Duration) Interceptor {
	return Around(func(ctx context.Context, info CallInfo, next func(context.Context) (interface{}, error)) (interface{}, error) {
		ctx, cancel := context.WithTimeout(ctx, d)
		defer cancel()
		v, err := next(ctx)
		if err != nil {
			return nil, protocol.AsError(err)
		}
		return v, nil
	})
}
