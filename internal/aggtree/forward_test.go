package aggtree

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fleet/internal/compress"
	"fleet/internal/nn"
	"fleet/internal/pipeline"
	"fleet/internal/protocol"
	"fleet/internal/server"
	"fleet/internal/service"
)

// pushCounter counts the top-k and dense pushes it passes on.
type pushCounter struct {
	service.Service
	topK, dense int
}

func (c *pushCounter) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	if push.SparseIndices != nil {
		c.topK++
	} else {
		c.dense++
	}
	return c.Service.PushGradient(ctx, push)
}

// topKLeaves builds n top-k leaf pushes of a dozen ascending coordinates
// each, drawn from a small pool so that the pushes of a window overlap and
// a reordered sum rounds differently.
func topKLeaves(n, params int) []protocol.GradientPush {
	rng := rand.New(rand.NewSource(13))
	out := make([]protocol.GradientPush, n)
	for i := range out {
		var idx []int32
		for len(idx) < 12 {
			if c := int32(rng.Intn(300)); !slices.Contains(idx, c) {
				idx = append(idx, c)
			}
		}
		slices.Sort(idx)
		vals := make([]float64, len(idx))
		for j := range vals {
			vals[j] = rng.NormFloat64() * 1e-2
		}
		out[i] = protocol.GradientPush{WorkerID: i, BatchSize: 10, LabelCounts: make([]int, 10),
			GradientLen: params, SparseIndices: idx, SparseValues: vals, Encoding: compress.EncodingTopK}
	}
	return out
}

// densified is push with its top-k gradient as the dense vector.
func densified(push protocol.GradientPush) protocol.GradientPush {
	sp := compress.Sparse{Len: push.GradientLen, Indices: push.SparseIndices, Values: push.SparseValues}
	push.Gradient = sp.Dense()
	push.GradientLen, push.SparseIndices, push.SparseValues, push.Encoding = 0, nil, nil, ""
	return push
}

// TestRootSeesTheSameTreeSparseOrDense: the same leaf stream through a tree
// twice — as top-k pushes, whose windows forward as top-k pushes, and
// densified, whose windows forward dense — leaves the root's model the same
// bit for bit, under every root pipeline: the mean window's scatter path,
// the robust windows and the dp stage, which densify a top-k forward, and a
// stacked tier, whose middle edge aggregates top-k forwards.
func TestRootSeesTheSameTreeSparseOrDense(t *testing.T) {
	const fanIn = 2
	rows := []struct {
		name, stages, agg string
		rootK, tiers      int
	}{
		{"mean", "staleness", "mean", 5, 1},
		{"median", "staleness", "median", 5, 1},
		{"trimmed", "staleness", "trimmed(1)", 5, 1},
		{"krum", "staleness", "krum(1)", 5, 1},
		{"dp stage", "staleness,dp(1,1.2)", "mean", 5, 1},
		{"stacked edges", "staleness", "mean", 2, 2},
	}
	ctx := context.Background()
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			run := func(dense bool) ([]float64, *pushCounter) {
				algo := newAlgo()
				pipe, err := pipeline.Build(row.stages, row.agg, pipeline.BuildOptions{Algorithm: algo, Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				root := newRoot(t, server.Config{K: row.rootK, Algorithm: algo, Pipeline: pipe, Seed: 5})
				seen := &pushCounter{Service: root}
				var entry *Node
				for up, tier := service.Service(seen), 0; tier < row.tiers; tier++ {
					entry = newEdge(t, Config{Upstream: up, K: fanIn, ID: 1_000_000 + tier})
					if err := entry.Sync(ctx); err != nil {
						t.Fatal(err)
					}
					up = entry
				}
				params, _ := root.Model()
				for i, leaf := range topKLeaves(40, len(params)) {
					if dense {
						leaf = densified(leaf)
					}
					leaf.ModelVersion, leaf.ModelEpoch = entry.Version()
					if _, err := entry.PushGradient(ctx, &leaf); err != nil {
						t.Fatalf("leaf %d: %v", i, err)
					}
				}
				if _, v := root.Model(); v < 3 {
					t.Fatalf("the root drained %d windows, want at least 3", v)
				}
				params, _ = root.Model()
				return params, seen
			}
			sparse, sparseSeen := run(false)
			dense, denseSeen := run(true)
			if sparseSeen.topK == 0 || sparseSeen.dense != 0 || denseSeen.topK != 0 || denseSeen.dense != sparseSeen.topK {
				t.Fatalf("root saw %d top-k and %d dense forwards of the top-k leaves, %d and %d of the dense ones",
					sparseSeen.topK, sparseSeen.dense, denseSeen.topK, denseSeen.dense)
			}
			for i := range sparse {
				if math.Float64bits(sparse[i]) != math.Float64bits(dense[i]) {
					t.Fatalf("param %d: %v under top-k forwards, %v under dense ones", i, sparse[i], dense[i])
				}
			}
		})
	}
}

// TestForwardTurnsNegativeZeroPositive: a drained −0 forwards as +0, sparse
// and dense alike — the bits a sum into a zeroed buffer holds.
func TestForwardTurnsNegativeZeroPositive(t *testing.T) {
	negZero := math.Copysign(0, -1)
	dir := []float64{negZero, 1, negZero, 2}
	var f forward
	if f.fill(dir, []int32{0, 2}); !f.sparse || math.Signbit(f.sp.Values[0]) || math.Signbit(f.sp.Values[1]) {
		t.Errorf("sparse forward %v (sparse %v), want +0s", f.sp.Values, f.sparse)
	}
	if f.fill(dir, nil); f.sparse || math.Signbit(f.sum[0]) || math.Signbit(f.sum[2]) {
		t.Errorf("dense forward %v (sparse %v), want +0s", f.sum, f.sparse)
	}
}

// BenchmarkEdgeForward is the tree-stream-sparse shape at the cifar100 size
// (325 k parameters): one op is a window of four leaf pushes through a K=4
// edge into an in-process K=1 root. sparse: top-k 1 % leaves, so the window
// forwards as a top-k push and the root applies and diffs it at its touched
// coordinates, and the edge refreshes by delta pull; announced: the same,
// with the root's snapshot hook wired to the edge, so the edge refreshes from
// the announce it absorbs during the forward and pulls nothing; dense: the same
// leaves densified, so a dense forward.
func BenchmarkEdgeForward(b *testing.B) {
	b.Run("sparse", func(b *testing.B) { benchmarkEdgeForward(b, false, false) })
	b.Run("announced", func(b *testing.B) { benchmarkEdgeForward(b, false, true) })
	b.Run("dense", func(b *testing.B) { benchmarkEdgeForward(b, true, false) })
}

func benchmarkEdgeForward(b *testing.B, dense, announced bool) {
	ctx := context.Background()
	root := newRoot(b, server.Config{K: 1, Arch: nn.ArchCIFAR100})
	edge := newEdge(b, Config{Upstream: root, Arch: nn.ArchCIFAR100, K: 4, ID: 1_000_000})
	if err := edge.Sync(ctx); err != nil {
		b.Fatal(err)
	}
	if announced {
		root.OnSnapshot(func(ann protocol.ModelAnnounce) { edge.AbsorbUpstreamAnnounce(ann) })
	}
	params := edge.core.Config().ParamCount
	rng := rand.New(rand.NewSource(1))
	pool := make([]protocol.GradientPush, 16)
	for p := range pool {
		idx := make([]int32, 0, params/100)
		for _, c := range rng.Perm(params)[:params/100] {
			idx = append(idx, int32(c))
		}
		slices.Sort(idx)
		vals := make([]float64, len(idx))
		for j := range vals {
			vals[j] = rng.NormFloat64() * 1e-3
		}
		pool[p] = protocol.GradientPush{BatchSize: 10, GradientLen: params, SparseIndices: idx, SparseValues: vals,
			Encoding: compress.EncodingTopK}
		if dense {
			pool[p] = densified(pool[p])
		}
	}
	push := func(i int) {
		g := &pool[i%len(pool)]
		g.ModelVersion, g.ModelEpoch = edge.Version()
		if _, err := edge.PushGradient(ctx, g); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4*(edge.core.Config().DeltaHistory+1); i++ { // fill both delta histories
		push(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < 4*b.N; i++ {
		push(i)
	}
}
