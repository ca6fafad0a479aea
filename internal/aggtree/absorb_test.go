package aggtree

import (
	"context"
	"math"
	"sync"
	"testing"

	"fleet/internal/compress"
	"fleet/internal/protocol"
	"fleet/internal/server"
	"fleet/internal/service"
)

// TestForwardAbsorbsTheAnnouncedStep: a K=1 root announces the version each
// forwarded window mints before it acks the forward, so the K=4 edge's
// refresh is that announce, applied as it arrives inside the forward, and
// the edge pulls only when the announces leave its cache behind or flagged.
// Every row ends every window with the edge's cache equal to the root's
// model bit for bit; what differs is how many pulls the root served after
// the boot sync.
func TestForwardAbsorbsTheAnnouncedStep(t *testing.T) {
	const windows = 12
	rows := []struct {
		name string
		// hook delivers one root announce to the edge; nil wires none.
		hook func(t *testing.T, edge *Node, ann protocol.ModelAnnounce)
		// gap moves the root twice, unannounced, before each window.
		gap            bool
		pullsPerWindow int
	}{
		{name: "announced", hook: func(t *testing.T, edge *Node, ann protocol.ModelAnnounce) {
			if !edge.AbsorbUpstreamAnnounce(ann) {
				t.Errorf("announce of v%d not absorbed inside the forward", ann.ModelVersion)
			}
		}},
		{name: "no hook", pullsPerWindow: 1},
		{name: "gap", gap: true, pullsPerWindow: 1, hook: func(_ *testing.T, edge *Node, ann protocol.ModelAnnounce) {
			edge.AbsorbUpstreamAnnounce(ann)
		}},
		{name: "foreign epoch", pullsPerWindow: 1, hook: func(_ *testing.T, edge *Node, ann protocol.ModelAnnounce) {
			edge.AbsorbUpstreamAnnounce(ann)
			ann.ServerEpoch++
			edge.AbsorbUpstreamAnnounce(ann)
		}},
	}
	ctx := context.Background()
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			root := newRoot(t, server.Config{K: 1, Seed: 3})
			edge := newEdge(t, Config{Upstream: root, K: 4, ID: 1_000_000})
			if err := edge.Sync(ctx); err != nil {
				t.Fatal(err)
			}
			announcing := true
			if row.hook != nil {
				root.OnSnapshot(func(ann protocol.ModelAnnounce) {
					if announcing {
						row.hook(t, edge, ann)
					}
				})
			}
			params, _ := root.Model()
			leaves := topKLeaves(4*windows, len(params))
			for w := 0; w < windows; w++ {
				if row.gap {
					announcing = false
					for _, leaf := range leaves[4*w : 4*w+2] {
						_, leaf.ModelVersion = root.Model()
						leaf.ModelEpoch = root.Epoch()
						if _, err := root.PushGradient(ctx, &leaf); err != nil {
							t.Fatal(err)
						}
					}
					announcing = true
				}
				for _, leaf := range leaves[4*w : 4*w+4] {
					leaf.ModelVersion, leaf.ModelEpoch = edge.Version()
					if _, err := edge.PushGradient(ctx, &leaf); err != nil {
						t.Fatalf("window %d: %v", w, err)
					}
				}
				want, v := root.Model()
				cache := edge.core.Lease()
				if cache.Version != v {
					t.Fatalf("window %d: edge cache at v%d, root at v%d", w, cache.Version, v)
				}
				for i, x := range cache.Params() {
					if math.Float64bits(x) != math.Float64bits(want[i]) {
						t.Fatalf("window %d: edge cache holds %v at %d, the root %v", w, x, i, want[i])
					}
				}
				cache.Release()
			}
			st, err := root.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if want := 1 + row.pullsPerWindow*windows; st.TasksServed != want {
				t.Fatalf("root served %d pulls for %d windows, want %d (the sync and %d per window)",
					st.TasksServed, windows, want, row.pullsPerWindow)
			}
			if got := edge.UpstreamPushes(); got != windows {
				t.Fatalf("edge forwarded %d windows, want %d", got, windows)
			}
		})
	}
}

// TestAbsorbUnderConcurrentAnnounces: leaves push into the edge from
// several goroutines while another goroutine moves the root behind the
// edge's back, so announces are absorbed on one goroutine while a forward or
// its pull is in flight on another. Once the pushing stops, one more window
// leaves the edge's cache equal to the root's model bit for bit.
func TestAbsorbUnderConcurrentAnnounces(t *testing.T) {
	const leavesPerG, goroutines = 40, 3
	ctx := context.Background()
	root := newRoot(t, server.Config{K: 1, Seed: 3})
	edge := newEdge(t, Config{Upstream: root, K: 4, ID: 1_000_000})
	if err := edge.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	root.OnSnapshot(func(ann protocol.ModelAnnounce) { edge.AbsorbUpstreamAnnounce(ann) })
	params, _ := root.Model()
	leaves := topKLeaves(goroutines*leavesPerG+4, len(params))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(mine []protocol.GradientPush) {
			defer wg.Done()
			for _, leaf := range mine {
				leaf.ModelVersion, leaf.ModelEpoch = edge.Version()
				if _, err := edge.PushGradient(ctx, &leaf); err != nil {
					t.Error(err)
					return
				}
			}
		}(leaves[g*leavesPerG : (g+1)*leavesPerG])
	}
	wg.Add(1)
	go func() { // another edge's windows
		defer wg.Done()
		for _, leaf := range leaves[:leavesPerG/2] {
			_, leaf.ModelVersion = root.Model()
			leaf.ModelEpoch = root.Epoch()
			if _, err := root.PushGradient(ctx, &leaf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	for _, leaf := range leaves[goroutines*leavesPerG:] {
		leaf.ModelVersion, leaf.ModelEpoch = edge.Version()
		if _, err := edge.PushGradient(ctx, &leaf); err != nil {
			t.Fatal(err)
		}
	}
	want, v := root.Model()
	cache := edge.core.Lease()
	defer cache.Release()
	if cache.Version != v {
		t.Fatalf("edge cache at v%d, root at v%d", cache.Version, v)
	}
	for i, x := range cache.Params() {
		if math.Float64bits(x) != math.Float64bits(want[i]) {
			t.Fatalf("edge cache holds %v at %d, the root %v", x, i, want[i])
		}
	}
}

// racedUpstream serves three hand-made versions. A delta pull from v0 hands
// the edge the 0→1 announce first, as a stream read loop may while the pull
// is in flight, and then answers the 0→2 delta; a pull from v1 answers 1→2.
// Every push is acked at v2.
type racedUpstream struct {
	service.Service // Stats: never called
	edge            *Node
	v               [3][]float64
	absorbed        bool // what the edge said of the 0→1 announce
}

func (u *racedUpstream) delta(from, to int) *compress.Sparse {
	d, ok := compress.Diff(u.v[from], u.v[to], len(u.v[0])/2)
	if !ok {
		panic("dense hand-made delta")
	}
	return &d
}

func (u *racedUpstream) RequestTask(_ context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	if !req.WantDelta {
		return &protocol.TaskResponse{Accepted: true, Params: u.v[0]}, nil
	}
	if req.KnownVersion == 0 {
		u.absorbed = u.edge.AbsorbUpstreamAnnounce(protocol.ModelAnnounce{ModelVersion: 1, Delta: u.delta(0, 1)})
	}
	return &protocol.TaskResponse{Accepted: true, ModelVersion: 2,
		DeltaBase: req.KnownVersion, ParamsDelta: u.delta(req.KnownVersion, 2)}, nil
}

func (u *racedUpstream) PushGradient(context.Context, *protocol.GradientPush) (*protocol.PushAck, error) {
	return &protocol.PushAck{Applied: true, NewVersion: 2}, nil
}

// TestPulledDeltaFromALeftBase: an announce absorbed while the forward's
// delta pull is in flight moves the cache off the base the pull named. The
// answer — a 0→2 delta in which a coordinate 0→1 changed is back at its v0
// bits, so it does not list it — is skipped, never patched onto v1, and
// does not flag the cache: the next forward's ack is ahead of it, and its
// pull repairs the cache to v2 bit for bit.
func TestPulledDeltaFromALeftBase(t *testing.T) {
	ctx := context.Background()
	up := &racedUpstream{}
	edge := newEdge(t, Config{Upstream: up, K: 1, ID: 1_000_000})
	up.edge = edge
	P := edge.core.Config().ParamCount
	for i := range up.v {
		up.v[i] = make([]float64, P)
	}
	up.v[0][0], up.v[0][1] = 0.5, 0.25
	copy(up.v[1], up.v[0])
	up.v[1][0], up.v[1][1] = 0.75, -0.25
	copy(up.v[2], up.v[1])
	up.v[2][0], up.v[2][2] = up.v[0][0], 1.5
	if err := edge.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	push := func() {
		t.Helper()
		v, e := edge.Version()
		if _, err := edge.PushGradient(ctx, &protocol.GradientPush{
			WorkerID: 1, ModelVersion: v, ModelEpoch: e, Gradient: sparseGrad(0, P), BatchSize: 10,
		}); err != nil {
			t.Fatal(err)
		}
	}

	push()
	if !up.absorbed {
		t.Fatal("the 0→1 announce was not absorbed during the pull")
	}
	if v, _ := edge.Version(); v != 1 || edge.needRefresh.Load() {
		t.Fatalf("after the raced pull the cache is at v%d, flagged %v; want v1, not flagged", v, edge.needRefresh.Load())
	}
	push()
	cache := edge.core.Lease()
	defer cache.Release()
	if cache.Version != 2 {
		t.Fatalf("after the repair the cache is at v%d, want v2", cache.Version)
	}
	for i, x := range cache.Params() {
		if math.Float64bits(x) != math.Float64bits(up.v[2][i]) {
			t.Fatalf("cache holds %v at %d, v2 %v", x, i, up.v[2][i])
		}
	}
}
