package node

import (
	"context"
	"math"
	"testing"
	"time"

	"fleet/internal/compress"
	"fleet/internal/protocol"
)

// TestStreamEdgeRefreshesFromAnnounces: an edge compiled from a Spec over a
// stream upstream takes its refresh after each forwarded window from the
// root's announce, which the root sends before its ack. After 40 leaf
// windows the edge's cache equals the root's model bit for bit, and the root
// served at most one pull per window beyond the boot sync. Fewer is the
// point, but how many fewer depends on whether an announce reached the edge
// before its ack, so no lower count is asserted.
func TestStreamEdgeRefreshesFromAnnounces(t *testing.T) {
	const windows, k = 40, 4
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	quiet := func(string, ...interface{}) {}
	root, err := FromSpec(Spec{
		Role: RoleRoot, K: 1, Seed: 5,
		Bind: BindSpec{Transport: "stream", StreamAddr: "127.0.0.1:0", Drain: time.Second},
		Logf: quiet,
	})
	if err != nil {
		t.Fatalf("root FromSpec: %v", err)
	}
	if err := root.Start(ctx); err != nil {
		t.Fatalf("root Start: %v", err)
	}
	defer root.Shutdown(ctx)
	edge, err := FromSpec(Spec{
		Role: RoleEdge, K: k, ID: 1_000_000,
		Upstream: UpstreamSpec{Target: root.Addr().String(), Transport: "stream"},
		Bind:     BindSpec{Transport: "none", Drain: time.Second},
		Logf:     quiet,
	})
	if err != nil {
		t.Fatalf("edge FromSpec: %v", err)
	}
	if err := edge.Start(ctx); err != nil {
		t.Fatalf("edge Start: %v", err)
	}
	defer edge.Shutdown(ctx)

	node := edge.Assembly().EdgeNode
	params, _ := root.Server().Model()
	for i := 0; i < windows*k; i++ {
		c := int32(i * 7 % len(params))
		push := &protocol.GradientPush{
			WorkerID: i % k, BatchSize: 10, GradientLen: len(params), Encoding: compress.EncodingTopK,
			SparseIndices: []int32{c, c + 1}, SparseValues: []float64{1e-3 * float64(i%5+1), -2e-3},
		}
		push.ModelVersion, push.ModelEpoch = node.Version()
		if _, err := edge.Service().PushGradient(ctx, push); err != nil {
			t.Fatalf("leaf push %d: %v", i, err)
		}
	}

	want, v := root.Server().Model()
	if v != windows {
		t.Fatalf("root at v%d after %d windows", v, windows)
	}
	resp, err := edge.Service().RequestTask(ctx, &protocol.TaskRequest{WorkerID: 1})
	if err != nil || !resp.Accepted {
		t.Fatalf("edge task: %v %+v", err, resp)
	}
	if resp.ModelVersion != v {
		t.Fatalf("edge serves v%d, root at v%d", resp.ModelVersion, v)
	}
	for i, x := range resp.Params {
		if math.Float64bits(x) != math.Float64bits(want[i]) {
			t.Fatalf("edge cache holds %v at %d, the root %v", x, i, want[i])
		}
	}
	st, err := root.Server().Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.TasksServed > 1+windows {
		t.Fatalf("root served %d pulls for %d windows, want at most %d", st.TasksServed, windows, 1+windows)
	}
	t.Logf("root served %d pulls for %d windows", st.TasksServed, windows)
}
