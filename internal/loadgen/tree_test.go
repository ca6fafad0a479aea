package loadgen

import (
	"context"
	"strings"
	"testing"
)

// TestAggTreeScenarioRunsClean: the hierarchical topology serves a whole
// fleet with zero protocol errors, and the push-reduction arithmetic holds:
// the root sees accepted/FanIn pushes while every leaf gradient stays
// accounted for in the K-sum.
func TestAggTreeScenarioRunsClean(t *testing.T) {
	sc := small(t, "agg-tree", 12, 6)
	res := runScenario(t, sc, 1)
	t.Logf("agg-tree: %+v tree=%+v acc=%.3f", res.Counts, res.Tree, res.FinalAccuracy)

	if res.Counts.ProtocolErrors != 0 {
		t.Fatalf("protocol errors: %d (%v)", res.Counts.ProtocolErrors, res.Counts.ErrorSamples)
	}
	if res.Tree == nil {
		t.Fatal("tree scenario reported no tree block")
	}
	if res.Tree.Edges != sc.Tree.Edges || res.Tree.FanIn != sc.Tree.FanIn {
		t.Fatalf("tree block echoes %d/%d, scenario has %d/%d",
			res.Tree.Edges, res.Tree.FanIn, sc.Tree.Edges, sc.Tree.FanIn)
	}
	if res.Counts.Pushes != sc.Workers*sc.Rounds {
		t.Fatalf("pushes = %d, want %d", res.Counts.Pushes, sc.Workers*sc.Rounds)
	}
	// O(fan-in) reduction: the root receives exactly one push per drained
	// edge window (pushes divide evenly here — no partial flush).
	wantRoot := int64(res.Counts.Pushes / sc.Tree.FanIn)
	if res.Tree.RootPushes != wantRoot {
		t.Fatalf("root pushes = %d, want %d (= %d accepted / fan-in %d)",
			res.Tree.RootPushes, wantRoot, res.Counts.Pushes, sc.Tree.FanIn)
	}
	if res.Tree.LostWindows != 0 {
		t.Fatalf("lost %d windows in a clean run", res.Tree.LostWindows)
	}
	// Equation 3's K-sum bookkeeping end to end: the root counted every
	// individual leaf gradient despite seeing only aggregated pushes.
	if res.Server.GradientsIn != int(res.Tree.RootPushes) {
		t.Fatalf("root GradientsIn = %d, want %d", res.Server.GradientsIn, res.Tree.RootPushes)
	}
	if res.Tree.LeafGradients != res.Counts.Pushes {
		t.Fatalf("root LeafGradients = %d, want %d", res.Tree.LeafGradients, res.Counts.Pushes)
	}
}

// TestTreeMatchesFlatAccuracy is the acceptance criterion for the tier: the
// full agg-tree scenario (seed 42, the committed baseline's run) must land
// within 0.02 final accuracy of its flat twin — same fleet, same seed, same
// effective window (K = Edges·FanIn), no tree.
func TestTreeMatchesFlatAccuracy(t *testing.T) {
	sc, err := ByName("agg-tree")
	if err != nil {
		t.Fatal(err)
	}
	tree := runScenario(t, sc, 42)

	flat := sc
	flat.Tree = TreeSpec{}
	flat.Server.K = sc.Tree.Edges * sc.Tree.FanIn
	flatRes := runScenario(t, flat, 42)

	t.Logf("tree acc=%.4f (root pushes %d), flat acc=%.4f (pushes %d)",
		tree.FinalAccuracy, tree.Tree.RootPushes, flatRes.FinalAccuracy, flatRes.Counts.Pushes)
	if tree.Counts.ProtocolErrors != 0 || flatRes.Counts.ProtocolErrors != 0 {
		t.Fatalf("errors: tree=%v flat=%v", tree.Counts.ErrorSamples, flatRes.Counts.ErrorSamples)
	}
	diff := tree.FinalAccuracy - flatRes.FinalAccuracy
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.02 {
		t.Fatalf("tree accuracy %.4f vs flat %.4f: |diff| %.4f exceeds 0.02",
			tree.FinalAccuracy, flatRes.FinalAccuracy, diff)
	}
	// The reduction headline: the root served the same fleet on a fraction
	// of the pushes.
	if tree.Tree.RootPushes*int64(sc.Tree.FanIn) != int64(flatRes.Counts.Pushes) {
		t.Fatalf("root pushes %d × fan-in %d != flat pushes %d",
			tree.Tree.RootPushes, sc.Tree.FanIn, flatRes.Counts.Pushes)
	}
}

// TestTreeDeterministicReplay: the tree topology lives under the virtual
// clock like everything else — two same-seed runs agree byte-for-byte.
func TestTreeDeterministicReplay(t *testing.T) {
	sc := small(t, "agg-tree", 12, 5)
	a := runScenario(t, sc, 42)
	b := runScenario(t, sc, 42)
	if diff, err := Diff(a, b); err != nil || diff != "" {
		t.Fatalf("same-seed tree runs differ (%v) at %s", err, diff)
	}
	if diff, _ := Diff(a, runScenario(t, sc, 43)); diff == "" {
		t.Fatal("different seeds produced identical tree runs")
	}
}

// TestTreeRestartCascade: a root hard-kill mid-run cascades through the
// tier — the edges' next forwards conflict on the new incarnation and
// resync, the leaves resync against their edges — and the run completes
// without permanent errors.
func TestTreeRestartCascade(t *testing.T) {
	sc := small(t, "agg-tree", 12, 6)
	sc.Restart = RestartSpec{AtSec: 15, CheckpointEvery: 1}
	res := runScenario(t, sc, 42)
	t.Logf("tree-restart: %+v tree=%+v", res.Counts, res.Tree)

	if res.Counts.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Counts.Restarts)
	}
	if res.Counts.ProtocolErrors != 0 {
		t.Fatalf("permanent protocol errors: %v", res.Counts.ErrorSamples)
	}
	if res.Tree == nil {
		t.Fatal("no tree block")
	}
	// First domino: at least one edge forward hit the new incarnation,
	// lost its window, and re-pulled.
	if res.Tree.UpstreamConflicts == 0 || res.Tree.EdgeResyncs == 0 {
		t.Fatalf("edge tier never cascaded: conflicts=%d resyncs=%d",
			res.Tree.UpstreamConflicts, res.Tree.EdgeResyncs)
	}
	if res.Tree.LostWindows == 0 {
		t.Fatal("a conflicted forward must count its lost window")
	}
	// Second domino: leaves resynced through the ordinary worker protocol.
	if res.Counts.Resyncs == 0 {
		t.Fatal("no leaf resynced: the cascade stopped at the edge tier")
	}
	// Every round still ended as a push or a reject — nobody wedged.
	if res.Counts.Pushes+res.Counts.Rejected != res.Workers*res.Rounds {
		t.Fatalf("rounds lost to the restart: %+v", res.Counts)
	}
	// The restored root announces its drains to the edges too, so every
	// edge forwards against the root's current model, as before the kill.
	if res.Server.MeanStaleness != 0 {
		t.Fatalf("root mean staleness %v after the restart, want 0: the restored root announces to no edge",
			res.Server.MeanStaleness)
	}
}

// TestTreeRequiresInProcTransport: the tree is an in-process topology (each
// edge is a service, not a wire endpoint); other transports are rejected up
// front instead of silently flattening the tree.
func TestTreeRequiresInProcTransport(t *testing.T) {
	sc := small(t, "agg-tree", 6, 2)
	for _, tr := range []Transport{TransportHTTP, TransportStream} {
		if _, err := (&Runner{Scenario: sc, Seed: 1, Transport: tr}).Run(context.Background()); err == nil ||
			!strings.Contains(err.Error(), "in-process") {
			t.Errorf("transport %s: %v, want in-process requirement error", tr, err)
		}
	}
}
