package node

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fleet/internal/protocol"
	"fleet/internal/stream"
	"fleet/internal/tenant"
)

// testTenants declares a two-tenant fleet for multi-tenant lifecycle
// tests: small models, checkpoint-friendly.
func testTenants() []tenant.Config {
	return []tenant.Config{
		{Name: "alpha", LearningRate: 0.05, K: 1, Seed: 1},
		{Name: "beta", LearningRate: 0.05, K: 1, Seed: 2},
	}
}

// recorder collects lifecycle events in call order.
type recorder struct {
	mu     sync.Mutex
	events []string
}

func (r *recorder) add(ev string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
}

func (r *recorder) list() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.events...)
}

// TestShutdownCanonicalOrder is the drain-drift regression test: both
// roles run the SAME teardown sequence — pre-drain checkpoint, stream
// goaway, HTTP shutdown, post-drain checkpoint, window flush, upstream
// close — implemented once in Runtime.Shutdown. Before the
// node runtime existed, fleet-server and fleet-agg each hand-rolled this
// in main and had drifted; the assertions here pin the one safe order for
// every role shape.
func TestShutdownCanonicalOrder(t *testing.T) {
	cases := []struct {
		role string
		want []string
	}{
		// Root shape: checkpoints, no upstream.
		{"root", []string{
			"checkpoint", // pre-drain (durability as of the signal)
			"stream", "http",
			"checkpoint", // post-drain (pushes committed during the drain)
		}},
		// Edge shape: no checkpoints; a partial window flushes upstream
		// after the drain, then the upstream session closes.
		{"edge", []string{
			"stream", "http",
			"flush", "close-upstream",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.role, func(t *testing.T) {
			rec := &recorder{}
			asm := Assembly{
				Name:  "fleet-" + tc.role,
				Drain: time.Second,
				Logf:  func(string, ...interface{}) {},
			}
			switch tc.role {
			case "root":
				asm.Checkpoint = func() (string, error) { rec.add("checkpoint"); return "ckpt", nil }
			case "edge":
				asm.Flush = func(context.Context) error { rec.add("flush"); return nil }
				asm.CloseUpstream = func() error { rec.add("close-upstream"); return nil }
			}
			rt := New(asm)
			rt.state.Store(int32(StateServing))
			rt.shutStream = func(context.Context) error { rec.add("stream"); return nil }
			rt.shutHTTP = func(context.Context) error { rec.add("http"); return nil }
			if code := rt.Shutdown(context.Background()); code != 0 {
				t.Fatalf("Shutdown = %d, want 0", code)
			}
			got := rec.list()
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("%s teardown order %v, want %v", tc.role, got, tc.want)
			}
			if s := rt.State(); s != StateClosed {
				t.Fatalf("state after Shutdown = %s, want closed", s)
			}
		})
	}
}

// TestShutdownDrainFailureAbortsDurability: a failed drain skips the
// post-drain checkpoint and flush (the pre-drain checkpoint already
// covered the signal point) but still closes, and the exit code is 1.
func TestShutdownDrainFailureAbortsDurability(t *testing.T) {
	rec := &recorder{}
	rt := New(Assembly{
		Name:          "fleet-server",
		Drain:         50 * time.Millisecond,
		Checkpoint:    func() (string, error) { rec.add("checkpoint"); return "ckpt", nil },
		Flush:         func(context.Context) error { rec.add("flush"); return nil },
		CloseUpstream: func() error { rec.add("close-upstream"); return nil },
		Logf:          func(string, ...interface{}) {},
	})
	rt.state.Store(int32(StateServing))
	rt.shutStream = func(context.Context) error { rec.add("stream"); return errors.New("sessions hung") }
	rt.shutHTTP = func(context.Context) error { rec.add("http"); return nil }
	if code := rt.Shutdown(context.Background()); code != 1 {
		t.Fatalf("Shutdown with hung drain = %d, want 1", code)
	}
	want := []string{"checkpoint", "stream", "close-upstream"}
	if got := rec.list(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("teardown after drain failure %v, want %v", got, want)
	}
}

// TestDrainExpiredContext: a drain whose deadline already passed fails
// (propagating the listener Shutdown error) and leaves the runtime in
// StateDraining, not StateDrained.
func TestDrainExpiredContext(t *testing.T) {
	rt := New(Assembly{Name: "fleet-server", Logf: func(string, ...interface{}) {}})
	rt.state.Store(int32(StateServing))
	rt.shutStream = func(ctx context.Context) error { return ctx.Err() }
	rt.shutHTTP = func(ctx context.Context) error { t.Fatal("HTTP shutdown ran after stream drain failed"); return nil }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rt.Drain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain with expired context = %v, want context.Canceled", err)
	}
	if s := rt.State(); s != StateDraining {
		t.Fatalf("state after failed drain = %s, want draining", s)
	}
}

// TestCloseIdempotent: Close runs its teardown exactly once; repeat calls
// return the first call's error without re-closing anything.
func TestCloseIdempotent(t *testing.T) {
	closes := 0
	wantErr := errors.New("upstream close failed")
	rt := New(Assembly{
		Name:          "fleet-agg",
		CloseUpstream: func() error { closes++; return wantErr },
		Logf:          func(string, ...interface{}) {},
	})
	if err := rt.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("first Close = %v, want %v", err, wantErr)
	}
	if err := rt.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("second Close = %v, want the first call's error", err)
	}
	if closes != 1 {
		t.Fatalf("CloseUpstream ran %d times, want 1", closes)
	}
	if s := rt.State(); s != StateClosed {
		t.Fatalf("state after Close = %s, want closed", s)
	}
	if err := rt.Drain(context.Background()); err == nil {
		t.Fatal("Drain after Close succeeded, want state error")
	}
	if _, err := rt.Checkpoint(); err == nil {
		t.Fatal("Checkpoint after Close succeeded, want state error")
	}
}

// TestCheckpointRacesDrain drives Checkpoint concurrently with Drain and
// Shutdown on a real compiled root — the -race run proves the lifecycle
// state machine and the server's state capture serialize safely.
func TestCheckpointRacesDrain(t *testing.T) {
	dir := t.TempDir()
	rt, err := FromSpec(Spec{
		Role:         RoleRoot,
		Name:         "race-root",
		LearningRate: 0.05, NonStragglerPct: 99.7,
		K:          1,
		Stages:     "staleness",
		Aggregator: "mean",
		Bind:       BindSpec{Transport: "both", Addr: "127.0.0.1:0", StreamAddr: "127.0.0.1:0", Drain: time.Second},
		Checkpoint: CheckpointSpec{Dir: dir, Every: 1},
		Logf:       func(string, ...interface{}) {},
	})
	if err != nil {
		t.Fatalf("FromSpec: %v", err)
	}
	if err := rt.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				// Racing a Close is legal: Checkpoint then reports the
				// closed state instead of snapshotting.
				_, _ = rt.Checkpoint()
			}
		}()
	}
	if code := rt.Shutdown(context.Background()); code != 0 {
		t.Fatalf("Shutdown racing Checkpoint = %d, want 0", code)
	}
	wg.Wait()
}

// TestRunCancelledDuringTenantRecovery models a SIGTERM arriving right as
// a multi-tenant node comes back up from per-tenant checkpoints: Run with
// an already-cancelled context must still complete the canonical
// teardown — every tenant checkpointed through the shared runtime — and
// exit 0. The second boot then proves the sweep left
// restorable state behind.
func TestRunCancelledDuringTenantRecovery(t *testing.T) {
	dir := t.TempDir()
	mtSpec := func() Spec {
		return Spec{
			Role:       RoleRoot,
			Name:       "mt-root",
			Tenants:    testTenants(),
			Bind:       BindSpec{Transport: "http", Addr: "127.0.0.1:0", Drain: time.Second},
			Checkpoint: CheckpointSpec{Dir: dir, Every: 1},
			Logf:       func(string, ...interface{}) {},
		}
	}
	boot := func() int {
		rt, err := FromSpec(mtSpec())
		if err != nil {
			t.Fatalf("FromSpec: %v", err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // the SIGTERM: delivered before the node finishes coming up
		return rt.Run(ctx, nil)
	}
	if code := boot(); code != 0 {
		t.Fatalf("first boot under immediate SIGTERM = %d, want 0", code)
	}
	// Second incarnation recovers each tenant from the sweep's checkpoints
	// (restored units report epoch >= 1) and survives the same signal.
	rt, err := FromSpec(mtSpec())
	if err != nil {
		t.Fatalf("recovery FromSpec: %v", err)
	}
	if n := len(rt.Assembly().Children); n != 2 {
		t.Fatalf("recovered %d tenant children, want 2", n)
	}
	srv := rt.Server()
	if srv != nil {
		t.Fatalf("multi-tenant root exposes a single server; children own them")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if code := rt.Run(ctx, nil); code != 0 {
		t.Fatalf("second boot under immediate SIGTERM = %d, want 0", code)
	}
}

// TestKillThenRebuildFromSpec: Kill abandons the courtesy teardown, and a
// fresh FromSpec of the same Spec is the successor — the restart
// harness's contract.
func TestKillThenRebuildFromSpec(t *testing.T) {
	spec := Spec{
		Role:         RoleRoot,
		LearningRate: 0.05, NonStragglerPct: 99.7,
		K:          1,
		Stages:     "staleness",
		Aggregator: "mean",
		Bind:       BindSpec{Transport: "http", Addr: "127.0.0.1:0", Drain: time.Second},
		Logf:       func(string, ...interface{}) {},
	}
	rt, err := FromSpec(spec)
	if err != nil {
		t.Fatalf("FromSpec: %v", err)
	}
	if err := rt.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	addr := rt.Addr()
	if addr == nil {
		t.Fatal("no bound address after Start")
	}
	if err := rt.Kill(); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if s := rt.State(); s != StateClosed {
		t.Fatalf("state after Kill = %s, want closed", s)
	}
	successor, err := FromSpec(spec)
	if err != nil {
		t.Fatalf("successor FromSpec: %v", err)
	}
	if err := successor.Start(context.Background()); err != nil {
		t.Fatalf("successor Start (predecessor's port should be free): %v", err)
	}
	if code := successor.Shutdown(context.Background()); code != 0 {
		t.Fatalf("successor Shutdown = %d, want 0", code)
	}
}

// TestTenantAnnouncesStayInTheirTenant: on a two-tenant root serving the
// stream transport, the push that closes tenant alpha's window announces to
// alpha's subscribed session and to no session of tenant beta. The fan-out
// filters by the tenant label the resolver gave each session at handshake.
func TestTenantAnnouncesStayInTheirTenant(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tenants := testTenants()
	for i := range tenants {
		tenants[i].Secret = tenants[i].Name + "-secret"
	}
	rt, err := FromSpec(Spec{
		Role:    RoleRoot,
		Tenants: tenants,
		Bind:    BindSpec{Transport: "stream", StreamAddr: "127.0.0.1:0", Drain: time.Second},
		Logf:    func(string, ...interface{}) {},
	})
	if err != nil {
		t.Fatalf("FromSpec: %v", err)
	}
	if err := rt.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer rt.Shutdown(ctx)

	var seen [2]atomic.Int64
	clients := make([]*stream.Client, len(tenants))
	for i, tc := range tenants {
		seen := &seen[i]
		clients[i] = &stream.Client{
			Addr: rt.Addr().String(), WorkerID: 1, Subscribe: true, PingInterval: -1,
			Tenant: tc.Name, Token: tenant.MintToken([]byte(tc.Secret), tc.Name, 1),
			OnAnnounce: func(protocol.ModelAnnounce) { seen.Add(1) },
		}
		defer clients[i].Close()
		if _, err := clients[i].Stats(ctx); err != nil { // open the session
			t.Fatalf("%s: %v", tc.Name, err)
		}
	}
	alpha, beta := clients[0], clients[1]

	// push closes the window of c's tenant with a one-coordinate gradient,
	// so the drain's announce carries a delta, and waits for its announce.
	push := func(c *stream.Client) {
		t.Helper()
		resp, err := c.RequestTask(ctx, &protocol.TaskRequest{WorkerID: 1})
		if err != nil || !resp.Accepted {
			t.Fatalf("%s task: %v %+v", c.Tenant, err, resp)
		}
		grad := make([]float64, len(resp.Params))
		grad[0] = 1e-3
		ack, err := c.PushGradient(ctx, &protocol.GradientPush{
			WorkerID: 1, ModelVersion: resp.ModelVersion, Gradient: grad, BatchSize: 1,
		})
		if err != nil || !ack.Applied || ack.NewVersion != resp.ModelVersion+1 {
			t.Fatalf("%s push: %v %+v", c.Tenant, err, ack)
		}
		if err := c.WaitAnnounced(ctx, resp.ServerEpoch, ack.NewVersion); err != nil {
			t.Fatalf("%s announce: %v", c.Tenant, err)
		}
	}

	push(alpha)
	if anns := alpha.TakeAnnounces(); len(anns) != 1 || anns[0].Delta == nil {
		t.Fatalf("alpha's session took %+v, want its one delta announce", anns)
	}
	if anns := beta.TakeAnnounces(); len(anns) != 0 {
		t.Fatalf("beta's session took alpha's announces: %+v", anns)
	}
	// Beta's own announce is a fence: a leaked alpha announce was enqueued
	// on beta's session before alpha's ack, so it would arrive first.
	push(beta)
	if got := seen[1].Load(); got != 1 {
		t.Fatalf("beta's session saw %d announces, want only its own", got)
	}
}
