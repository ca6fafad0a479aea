package node

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

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
// close, writer close — implemented once in Runtime.Shutdown. Before the
// node runtime existed, fleet-server and fleet-agg each hand-rolled this
// in main and had drifted; the assertions here pin the one safe order for
// every role shape.
func TestShutdownCanonicalOrder(t *testing.T) {
	cases := []struct {
		role string
		want []string
	}{
		// Root shape: checkpoints and a background writer, no upstream.
		{"root", []string{
			"checkpoint", // pre-drain (durability as of the signal)
			"stream", "http",
			"checkpoint", // post-drain (pushes committed during the drain)
			"closer",
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
				asm.Closer = func() error { rec.add("closer"); return nil }
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
		Name:       "fleet-server",
		Drain:      50 * time.Millisecond,
		Checkpoint: func() (string, error) { rec.add("checkpoint"); return "ckpt", nil },
		Flush:      func(context.Context) error { rec.add("flush"); return nil },
		Closer:     func() error { rec.add("closer"); return nil },
		Logf:       func(string, ...interface{}) {},
	})
	rt.state.Store(int32(StateServing))
	rt.shutStream = func(context.Context) error { rec.add("stream"); return errors.New("sessions hung") }
	rt.shutHTTP = func(context.Context) error { rec.add("http"); return nil }
	if code := rt.Shutdown(context.Background()); code != 1 {
		t.Fatalf("Shutdown with hung drain = %d, want 1", code)
	}
	want := []string{"checkpoint", "stream", "closer"}
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
	wantErr := errors.New("writer flush failed")
	rt := New(Assembly{
		Name:   "fleet-server",
		Closer: func() error { closes++; return wantErr },
		Logf:   func(string, ...interface{}) {},
	})
	if err := rt.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("first Close = %v, want %v", err, wantErr)
	}
	if err := rt.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("second Close = %v, want the first call's error", err)
	}
	if closes != 1 {
		t.Fatalf("Closer ran %d times, want 1", closes)
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

// TestChildrenCloseWithoutCloser: without a compiled Closer the runtime
// closes every child itself, best effort, wrapping the first error with
// the tenant's name — the same contract tenant.Registry.Close has.
func TestChildrenCloseWithoutCloser(t *testing.T) {
	var closed []string
	rt := New(Assembly{
		Name: "fleet-server",
		Children: []Child{
			{Name: "alpha", Close: func() error { closed = append(closed, "alpha"); return errors.New("boom") }},
			{Name: "beta", Close: func() error { closed = append(closed, "beta"); return errors.New("later") }},
		},
		Logf: func(string, ...interface{}) {},
	})
	err := rt.Close()
	if err == nil || err.Error() != "tenant alpha: boom" {
		t.Fatalf("Close = %v, want tenant alpha: boom", err)
	}
	if fmt.Sprint(closed) != fmt.Sprint([]string{"alpha", "beta"}) {
		t.Fatalf("closed %v, want both children (best effort)", closed)
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
// teardown — every tenant checkpointed and closed through the shared
// runtime — and exit 0. The second boot then proves the sweep left
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
