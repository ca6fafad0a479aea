package aggtree

import (
	"context"
	"math"
	"sync"
	"testing"

	"fleet/internal/protocol"
	"fleet/internal/server"
)

// TestForwardFoldsTheAnnouncedStep: a K=1 root announces the version each
// forwarded window mints before it acks the forward, so the K=4 edge's
// refresh is the announce it kept while the forward held the upstream lock,
// and the edge pulls only when the announces leave its cache behind or
// flagged. Every row ends every window with the edge's cache equal to the
// root's model bit for bit; what differs is how many pulls the root served
// after the boot sync.
func TestForwardFoldsTheAnnouncedStep(t *testing.T) {
	const windows = 12
	rows := []struct {
		name string
		// hook delivers one root announce to the edge; nil wires none.
		hook func(edge *Node, ann protocol.ModelAnnounce)
		// gap moves the root twice, unannounced, before each window.
		gap            bool
		pullsPerWindow int
	}{
		{name: "announced", hook: func(edge *Node, ann protocol.ModelAnnounce) {
			edge.AbsorbUpstreamAnnounce(ann)
		}},
		{name: "no hook", pullsPerWindow: 1},
		{name: "gap", gap: true, pullsPerWindow: 1, hook: func(edge *Node, ann protocol.ModelAnnounce) {
			edge.AbsorbUpstreamAnnounce(ann)
		}},
		{name: "foreign epoch", pullsPerWindow: 1, hook: func(edge *Node, ann protocol.ModelAnnounce) {
			edge.AbsorbUpstreamAnnounce(ann)
			ann.ServerEpoch++
			edge.AbsorbUpstreamAnnounce(ann)
		}},
		{name: "overflow", pullsPerWindow: 1, hook: func(edge *Node, ann protocol.ModelAnnounce) {
			stale := ann
			stale.ModelVersion, stale.DeltaBase = ann.DeltaBase, ann.DeltaBase-1
			edge.AbsorbUpstreamAnnounce(stale) // the oldest, dropped: the list is full after it
			for i := 0; i < maxPendingAnnounces; i++ {
				edge.AbsorbUpstreamAnnounce(ann)
			}
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
						row.hook(edge, ann)
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

// TestFoldUnderConcurrentAnnounces: leaves push into the edge from several
// goroutines while another goroutine moves the root behind the edge's back,
// so announces are kept by one goroutine while a forward on another folds
// them, or absorbed at once when no exchange is in flight. Once the pushing
// stops, one more window leaves the edge's cache equal to the root's model
// bit for bit.
func TestFoldUnderConcurrentAnnounces(t *testing.T) {
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
