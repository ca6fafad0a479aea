package aggtree

import (
	"context"
	"errors"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"fleet/internal/compress"
	"fleet/internal/ingest"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/pipeline"
	"fleet/internal/protocol"
	"fleet/internal/server"
	"fleet/internal/service"
)

func newAlgo() learning.Algorithm {
	return learning.NewAdaSGD(learning.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 5})
}

func newRoot(t testing.TB, cfg server.Config) *server.Server {
	t.Helper()
	if cfg.Arch == 0 {
		cfg.Arch = nn.ArchSoftmaxMNIST
	}
	if cfg.Algorithm == nil {
		cfg.Algorithm = newAlgo()
	}
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 0.1
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newEdge(t testing.TB, cfg Config) *Node {
	t.Helper()
	if cfg.Arch == 0 {
		cfg.Arch = nn.ArchSoftmaxMNIST
	}
	if cfg.Algorithm == nil {
		cfg.Algorithm = newAlgo()
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// sparseGrad builds the deterministic test gradient for leaf push i: a few
// nonzero entries, so the drained model updates stay sparse enough for the
// delta history to retain them (the announce-relay chain the tree's
// staleness-0 invariant rides on).
func sparseGrad(i, paramCount int) []float64 {
	g := make([]float64, paramCount)
	for k := 0; k < 5; k++ {
		idx := (i*37 + k*11) % paramCount
		g[idx] = float64(i%7+1)*0.01 + float64(k)*0.003
	}
	return g
}

// stripedSum is the flat twin's reference window aggregator: E round-robin
// stripes, drained as one direction summed in stripe order. With edge e's
// leaf gradients landing in stripe e, that is ((0+S0)+S1)+S2 — the sum the
// tree's root mean window accumulates from the edges' forwards.
type stripedSum struct {
	mu      sync.Mutex
	adds    int
	stripes [][]float64
}

func (w *stripedSum) Name() string { return "striped-sum" }

func (w *stripedSum) Add(g *pipeline.Gradient) {
	g.Densify()
	w.mu.Lock()
	defer w.mu.Unlock()
	e := w.adds % len(w.stripes)
	w.adds++
	if w.stripes[e] == nil {
		w.stripes[e] = make([]float64, len(g.Vec))
	}
	for i, v := range g.Vec {
		w.stripes[e][i] += float64(g.Scale * v)
	}
}

func (w *stripedSum) Drain(apply func(direction []float64, touched []int32)) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.adds == 0 {
		return nil
	}
	dir := make([]float64, len(w.stripes[0]))
	for _, st := range w.stripes {
		for i, v := range st {
			dir[i] += v
		}
		clear(st)
	}
	w.adds = 0
	apply(dir, nil)
	return nil
}

// TestTreeMeanEquivalentToFlat is the tree's correctness anchor: on the mean
// path, E edges with fan-in Ke in front of a root with K=E produce
// bit-for-bit the same model as a flat server with K=E·Ke receiving the same
// leaf gradients edge-interleaved into E stripes (stripedSum). Equation 3's
// K-sum is preserved exactly — an edge forwards the raw sum of its window
// (no division), the root's mean window accumulates the E forwards with
// scale exactly 1 (staleness 0, AdaSGD), and the floating-point addition
// order is identical in both topologies. The leaves push sparse gradients
// whose coordinates overlap: every leaf of a flat window writes the same
// five, and each also writes two of its own that other leaves' share now and
// then. So the edges take the scatter path while the flat twin densifies,
// and a summation reordered on either side rounds differently and fails the
// == comparison.
func TestTreeMeanEquivalentToFlat(t *testing.T) {
	ctx := context.Background()
	const (
		edgesN = 3
		fanIn  = 2
		rounds = 4
		seed   = 7
	)
	leafPushes := edgesN * fanIn * rounds

	// Flat twin: one server, window E·Ke, the staleness stage in front of E
	// stripes.
	flatAlgo := newAlgo()
	stage, err := pipeline.NewStalenessScale(flatAlgo)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := pipeline.New(&stripedSum{stripes: make([][]float64, edgesN)}, stage)
	if err != nil {
		t.Fatal(err)
	}
	flat := newRoot(t, server.Config{K: edgesN * fanIn, Algorithm: flatAlgo, Pipeline: pipe, Seed: seed, DeltaHistory: 4})

	// Tree: root with window E (one push per edge per round) into the
	// default mean window, E edges with fan-in Ke each, announce fan-out
	// keeping every edge's cached snapshot current the moment the root drains.
	root := newRoot(t, server.Config{K: edgesN, Seed: seed, DeltaHistory: 4})
	edges := make([]*Node, edgesN)
	for e := range edges {
		edges[e] = newEdge(t, Config{Upstream: root, K: fanIn, ID: 1_000_000 + e})
		if err := edges[e].Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}
	root.OnSnapshot(func(ann protocol.ModelAnnounce) {
		for _, ed := range edges {
			ed.AbsorbUpstreamAnnounce(ann)
		}
	})

	flatParams0, _ := flat.Model()
	rootParams0, _ := root.Model()
	paramCount := len(flatParams0)
	for i := range flatParams0 {
		if flatParams0[i] != rootParams0[i] {
			t.Fatal("same seed must initialize identical models")
		}
	}

	for i := 0; i < leafPushes; i++ {
		grad := make([]float64, paramCount)
		window := i / (edgesN * fanIn)
		for k := 0; k < 5; k++ {
			grad[(window*37+k*11)%paramCount] = float64(i%7+1)*0.01 + float64(k)*0.003 + float64(i)/3000
		}
		grad[(i%4)*5+60] = float64(i+1) / 700
		grad[(i*13)%17+80] = -float64(i+3) / 900
		var sparse compress.Sparse
		for j, v := range grad {
			if v != 0 {
				sparse.Indices = append(sparse.Indices, int32(j))
				sparse.Values = append(sparse.Values, v)
			}
		}
		leaf := protocol.GradientPush{
			WorkerID: i, GradientLen: paramCount, SparseIndices: sparse.Indices, SparseValues: sparse.Values, BatchSize: 10,
		}

		// Flat: push straight at the server, always current.
		_, fv := flat.Model()
		push := leaf
		push.ModelVersion = fv
		if _, err := flat.PushGradient(ctx, &push); err != nil {
			t.Fatalf("flat push %d: %v", i, err)
		}

		// Tree: the same gradient lands on edge i mod E at the edge's
		// cached clock — which the announce fan-out holds at the root's.
		ed := edges[i%edgesN]
		push = leaf
		push.ModelVersion, push.ModelEpoch = ed.Version()
		ack, err := ed.PushGradient(ctx, &push)
		if err != nil {
			t.Fatalf("tree push %d: %v", i, err)
		}
		if ack.Staleness != 0 {
			t.Fatalf("tree push %d: staleness %d, want 0 (edge cache fell behind the root)", i, ack.Staleness)
		}
		if ack.Scale != 1 {
			t.Fatalf("tree push %d: scale %v, want exactly 1", i, ack.Scale)
		}
	}

	flatParams, flatV := flat.Model()
	rootParams, rootV := root.Model()
	if flatV != rounds || rootV != rounds {
		t.Fatalf("versions flat=%d tree-root=%d, want %d", flatV, rootV, rounds)
	}
	for i := range flatParams {
		if flatParams[i] != rootParams[i] {
			t.Fatalf("param %d diverged: flat=%v tree=%v (mean path must be bit-for-bit)",
				i, flatParams[i], rootParams[i])
		}
	}

	// The push-reduction bookkeeping: the root saw E pushes per round but
	// E·Ke leaf gradients per round.
	st, err := root.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.GradientsIn != edgesN*rounds {
		t.Errorf("root GradientsIn = %d, want %d", st.GradientsIn, edgesN*rounds)
	}
	if st.LeafGradients != leafPushes {
		t.Errorf("root LeafGradients = %d, want %d", st.LeafGradients, leafPushes)
	}
	for e, ed := range edges {
		if got := ed.UpstreamPushes(); got != rounds {
			t.Errorf("edge %d forwarded %d windows, want %d", e, got, rounds)
		}
		if got := ed.LostWindows(); got != 0 {
			t.Errorf("edge %d lost %d windows", e, got)
		}
	}
}

// forwardRecorder is an upstream that keeps a copy of every forward and
// where its arrays lay, refuses pushes while down, and scribbles over the
// arrays (NaN values, zero indices) before it returns: it only borrowed them.
type forwardRecorder struct {
	service.Service
	down     bool
	forwards []protocol.GradientPush // gradient arrays cloned
	storage  []forwardStorage
}

// forwardStorage is where a forward's arrays lay: the dense sum, or the
// sparse indices and values.
type forwardStorage struct {
	sum  *float64
	idx  *int32
	vals *float64
}

func first[T any](s []T) *T {
	if len(s) == 0 {
		return nil
	}
	return &s[0]
}

func (r *forwardRecorder) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	kept := *push
	kept.Gradient, kept.SparseIndices, kept.SparseValues = slices.Clone(push.Gradient),
		slices.Clone(push.SparseIndices), slices.Clone(push.SparseValues)
	r.forwards = append(r.forwards, kept)
	r.storage = append(r.storage, forwardStorage{first(push.Gradient), first(push.SparseIndices), first(push.SparseValues)})
	var ack *protocol.PushAck
	err := error(protocol.Errorf(protocol.CodeUnavailable, "upstream down"))
	if !r.down {
		ack, err = r.Service.PushGradient(ctx, push)
	}
	for i := range push.Gradient {
		push.Gradient[i] = math.NaN()
	}
	for i := range push.SparseValues {
		push.SparseValues[i] = math.NaN()
	}
	clear(push.SparseIndices)
	return ack, err
}

// TestForwardSumIsRecycled: an edge fills each window's K-sum into the
// buffer its previous forward gave back — a forward lost upstream gives it
// back too — and every forward carries exactly its own window's sum, none of
// what the buffer held before.
func TestForwardSumIsRecycled(t *testing.T) {
	ctx := context.Background()
	root := newRoot(t, server.Config{K: 1})
	up := &forwardRecorder{Service: root}
	const fanIn, windows = 2, 3
	edge := newEdge(t, Config{Upstream: up, K: fanIn, Algorithm: learning.SSGD{}, ID: 1_000_000})
	if err := edge.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	params, _ := root.Model()
	var want [][]float64
	for w := 0; w < windows; w++ {
		up.down = w == 1
		sum := make([]float64, len(params))
		for l := 0; l < fanIn; l++ {
			g := sparseGrad(w*fanIn+l, len(params))
			for i, v := range g {
				sum[i] += v
			}
			v, e := edge.Version()
			if _, err := edge.PushGradient(ctx, &protocol.GradientPush{
				WorkerID: l, ModelVersion: v, ModelEpoch: e, Gradient: g, BatchSize: 10,
			}); err != nil {
				t.Fatalf("window %d leaf %d: %v", w, l, err)
			}
		}
		want = append(want, sum)
	}
	if len(up.forwards) != windows {
		t.Fatalf("%d forwards, want %d", len(up.forwards), windows)
	}
	for w, fwd := range up.forwards {
		got := fwd.Gradient
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[w][i]) {
				t.Fatalf("window %d forwarded %v at %d, its K-sum is %v", w, got[i], i, want[w][i])
			}
		}
		if up.storage[w].sum == nil || up.storage[w] != up.storage[0] {
			t.Errorf("window %d's sum is not the recycled buffer", w)
		}
	}
	if edge.LostWindows() != 1 || edge.UpstreamPushes() != windows-1 {
		t.Errorf("lost %d windows, forwarded %d; want 1 and %d", edge.LostWindows(), edge.UpstreamPushes(), windows-1)
	}
}

// TestFlushReportsALostWindow: a final window whose forward fails upstream
// is lost, and Flush says so; with the window empty there is nothing to lose.
func TestFlushReportsALostWindow(t *testing.T) {
	ctx := context.Background()
	root := newRoot(t, server.Config{K: 1})
	edge := newEdge(t, Config{Upstream: &forwardRecorder{Service: root, down: true}, K: 4, ID: 1_000_000})
	if err := edge.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	params, _ := root.Model()
	if _, err := edge.PushGradient(ctx, &protocol.GradientPush{
		WorkerID: 1, Gradient: sparseGrad(0, len(params)), BatchSize: 10,
	}); err != nil {
		t.Fatal(err)
	}
	if err := edge.Flush(ctx); err == nil || edge.LostWindows() != 1 {
		t.Fatalf("Flush returned %v with LostWindows %d; want an error and 1", err, edge.LostWindows())
	}
	if err := edge.Flush(ctx); err != nil {
		t.Fatalf("Flush of an empty window: %v", err)
	}
}

// failingMean is the mean window with a drain that can be made to reject
// the window: the mass is drained and discarded, nothing applied.
type failingMean struct {
	*pipeline.MeanWindow
	fail bool
}

func (f *failingMean) Drain(apply func(direction []float64, touched []int32)) error {
	err := f.MeanWindow.Drain(func(dir []float64, touched []int32) {
		if !f.fail {
			apply(dir, touched)
		}
	})
	if f.fail {
		return errors.New("window rejected")
	}
	return err
}

// leafPush is a leaf's gradient as a top-k push at indices, or dense when
// indices is nil.
type leafPush struct {
	indices []int32
	values  []float64
}

// TestSparseForwardIsRecycled is TestForwardSumIsRecycled for windows of
// top-k leaves: each forward is exactly its window's touched K-sum —
// ascending indices, values equal bit for bit — as a top-k push in the
// index and value storage the previous forward gave back, which a window
// lost upstream and a failed drain give back too. A window with a dense leaf
// and one that touched more than half the vector forward dense, in the
// recycled sum.
func TestSparseForwardIsRecycled(t *testing.T) {
	ctx := context.Background()
	root := newRoot(t, server.Config{K: 1})
	up := &forwardRecorder{Service: root}
	agg := &failingMean{MeanWindow: pipeline.NewMeanWindow()}
	pipe, err := pipeline.New(agg)
	if err != nil {
		t.Fatal(err)
	}
	const fanIn = 2
	edge := newEdge(t, Config{Upstream: up, K: fanIn, Algorithm: learning.SSGD{}, Pipeline: pipe, ID: 1_000_000})
	if err := edge.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	params, _ := root.Model()
	P := len(params)
	topK := func(w, l int) leafPush {
		var p leafPush
		for k := 0; k < 5; k++ {
			p.indices = append(p.indices, int32(w*97+(l+k)*11))
			p.values = append(p.values, float64(w*10+l+1)*0.01+float64(k)*0.003)
		}
		return p
	}
	dense := leafPush{values: make([]float64, P)}
	for i := range dense.values {
		dense.values[i] = float64(i%13)*1e-4 - 5e-4
	}
	var wide, few leafPush // together one coordinate past half the vector
	for i := 0; i < P; i += 2 {
		wide.indices, wide.values = append(wide.indices, int32(i)), append(wide.values, 1e-3)
	}
	few.indices, few.values = []int32{1, 3}, []float64{2e-3, -2e-3}

	windows := []struct {
		leaves       [fanIn]leafPush
		down, reject bool
		sparse       bool // the forward is a top-k push; no forward when reject
	}{
		{leaves: [fanIn]leafPush{topK(0, 0), topK(0, 1)}, sparse: true},
		{leaves: [fanIn]leafPush{topK(1, 0), topK(1, 1)}, down: true, sparse: true},
		{leaves: [fanIn]leafPush{topK(2, 0), topK(2, 1)}, reject: true},
		{leaves: [fanIn]leafPush{topK(3, 0), topK(3, 1)}, sparse: true},
		{leaves: [fanIn]leafPush{topK(4, 0), dense}},
		{leaves: [fanIn]leafPush{wide, few}},
	}
	var want []protocol.GradientPush
	for w, win := range windows {
		up.down, agg.fail = win.down, win.reject
		sum := make([]float64, P)
		var touched []int32
		for l, leaf := range win.leaves {
			push := protocol.GradientPush{WorkerID: l, BatchSize: 10}
			if leaf.indices == nil {
				push.Gradient = leaf.values
				for i, v := range leaf.values {
					sum[i] += v
				}
			} else {
				push.GradientLen, push.SparseIndices, push.SparseValues = P, leaf.indices, leaf.values
				push.Encoding = compress.EncodingTopK
				for j, c := range leaf.indices {
					sum[c] += leaf.values[j]
				}
				touched = append(touched, leaf.indices...)
			}
			push.ModelVersion, push.ModelEpoch = edge.Version()
			if _, err := edge.PushGradient(ctx, &push); err != nil {
				t.Fatalf("window %d leaf %d: %v", w, l, err)
			}
		}
		switch {
		case win.reject:
		case win.sparse:
			slices.Sort(touched)
			fwd := protocol.GradientPush{GradientLen: P, SparseIndices: slices.Compact(touched), Encoding: compress.EncodingTopK}
			for _, c := range fwd.SparseIndices {
				fwd.SparseValues = append(fwd.SparseValues, sum[c])
			}
			want = append(want, fwd)
		default:
			want = append(want, protocol.GradientPush{Gradient: sum})
		}
	}

	if len(up.forwards) != len(want) {
		t.Fatalf("%d forwards, want %d", len(up.forwards), len(want))
	}
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for f, got := range up.forwards {
		w := want[f]
		if got.Encoding != w.Encoding || got.GradientLen != w.GradientLen || got.Contributing != fanIn ||
			!slices.Equal(got.SparseIndices, w.SparseIndices) ||
			!slices.Equal(bits(got.SparseValues), bits(w.SparseValues)) || !slices.Equal(bits(got.Gradient), bits(w.Gradient)) {
			t.Fatalf("forward %d is not its window's K-sum:\n got %q len %d, %d indices %v\nwant %q len %d, %d indices %v",
				f, got.Encoding, got.GradientLen, len(got.SparseIndices), got.SparseIndices,
				w.Encoding, w.GradientLen, len(w.SparseIndices), w.SparseIndices)
		}
	}
	// Forwards 0–2 are sparse, 3–4 dense: each kind in its own recycled storage.
	for f, at := range up.storage {
		ref := up.storage[0]
		if f >= 3 {
			ref = up.storage[3]
		}
		if at != ref || (f < 3) != (at.idx != nil && at.vals != nil && at.sum == nil) {
			t.Errorf("forward %d's arrays are not the recycled storage: %+v, want %+v", f, at, ref)
		}
	}
	st, err := edge.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if edge.LostWindows() != 1 || st.DrainErrors != 2 || edge.UpstreamPushes() != int64(len(want))-1 {
		t.Errorf("lost %d windows, %d drain errors, forwarded %d; want 1, 2 and %d",
			edge.LostWindows(), st.DrainErrors, edge.UpstreamPushes(), len(want)-1)
	}
}

// swapSvc is a mutable upstream: the test's stand-in for a root that
// restarts behind the edge.
type swapSvc struct {
	mu    sync.Mutex
	inner service.Service
}

func (s *swapSvc) get() service.Service {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner
}

func (s *swapSvc) set(svc service.Service) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inner = svc
}

func (s *swapSvc) RequestTask(ctx context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	return s.get().RequestTask(ctx, req)
}

func (s *swapSvc) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	return s.get().PushGradient(ctx, push)
}

func (s *swapSvc) Stats(ctx context.Context) (*protocol.Stats, error) {
	return s.get().Stats(ctx)
}

// TestEpochCascadeOverTree walks a root restart down the tier: the edge's
// next upstream forward conflicts on the new incarnation epoch and resyncs,
// then a leaf still pushing the old epoch conflicts at the edge and resyncs
// with the ordinary worker protocol — one tier at a time, no side channel.
func TestEpochCascadeOverTree(t *testing.T) {
	ctx := context.Background()
	root1 := newRoot(t, server.Config{K: 1, Seed: 3})
	up := &swapSvc{inner: root1}
	edge := newEdge(t, Config{Upstream: up, K: 2, ID: 1_000_000})
	if err := edge.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	params, _ := root1.Model()
	paramCount := len(params)

	push := func(i int) (*protocol.PushAck, error) {
		v, e := edge.Version()
		return edge.PushGradient(ctx, &protocol.GradientPush{
			WorkerID: i, ModelVersion: v, ModelEpoch: e,
			Gradient: sparseGrad(i, paramCount), BatchSize: 10,
		})
	}

	// A full window lands on the live root.
	for i := 0; i < 2; i++ {
		if _, err := push(i); err != nil {
			t.Fatal(err)
		}
	}
	if edge.UpstreamPushes() != 1 {
		t.Fatalf("forwarded %d windows, want 1", edge.UpstreamPushes())
	}

	// The root "restarts" without a checkpoint: a fresh incarnation at a
	// nonzero boot epoch, version stream rewound to 0.
	root2 := newRoot(t, server.Config{K: 1, Seed: 3, BootEpoch: 9})
	up.set(root2)

	// The leaf, unaware, keeps pushing against the edge's cached clock; the
	// edge's next forward is the first domino: upstream version_conflict,
	// window lost, full re-pull onto incarnation 9.
	oldV, oldE := edge.Version()
	for i := 2; i < 4; i++ {
		if _, err := edge.PushGradient(ctx, &protocol.GradientPush{
			WorkerID: i, ModelVersion: oldV, ModelEpoch: oldE,
			Gradient: sparseGrad(i, paramCount), BatchSize: 10,
		}); err != nil {
			t.Fatalf("push %d (pre-cascade, edge still on old incarnation): %v", i, err)
		}
	}
	if edge.UpstreamConflicts() != 1 || edge.Resyncs() != 1 || edge.LostWindows() != 1 {
		t.Fatalf("after restart: conflicts=%d resyncs=%d lost=%d, want 1/1/1",
			edge.UpstreamConflicts(), edge.Resyncs(), edge.LostWindows())
	}
	if _, e := edge.Version(); e != 9 {
		t.Fatalf("edge resynced onto epoch %d, want 9", e)
	}

	// Second domino: the leaf's stale-epoch push is rejected by the edge
	// exactly as the root would reject it.
	_, err := edge.PushGradient(ctx, &protocol.GradientPush{
		WorkerID: 4, ModelVersion: oldV, ModelEpoch: oldE,
		Gradient: sparseGrad(4, paramCount), BatchSize: 10,
	})
	if !protocol.IsCode(err, protocol.CodeVersionConflict) {
		t.Fatalf("stale-epoch leaf push: want version_conflict, got %v", err)
	}

	// The ordinary resync: re-pull from the edge, recompute, push clean.
	resp, err := edge.RequestTask(ctx, &protocol.TaskRequest{WorkerID: 4})
	if err != nil || !resp.Accepted {
		t.Fatalf("leaf re-pull: %v (resp %+v)", err, resp)
	}
	if resp.ServerEpoch != 9 {
		t.Fatalf("re-pull served epoch %d, want 9", resp.ServerEpoch)
	}
	if _, err := edge.PushGradient(ctx, &protocol.GradientPush{
		WorkerID: 4, ModelVersion: resp.ModelVersion, ModelEpoch: resp.ServerEpoch,
		Gradient: sparseGrad(4, paramCount), BatchSize: 10,
	}); err != nil {
		t.Fatalf("post-resync push: %v", err)
	}
}

// TestAnnounceRelayAndDeltaServing covers the downstream half of the tier:
// every edge refresh relays as a {version, epoch, sparse-delta} announce,
// and the retained history serves version-aware leaf pulls as exact deltas.
func TestAnnounceRelayAndDeltaServing(t *testing.T) {
	ctx := context.Background()
	root := newRoot(t, server.Config{K: 1, Seed: 5, DeltaHistory: 4})
	edge := newEdge(t, Config{Upstream: root, K: 2, DeltaHistory: 4, ID: 1_000_000})
	if err := edge.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var relayed []protocol.ModelAnnounce
	edge.OnAnnounce(func(ann protocol.ModelAnnounce) {
		mu.Lock()
		relayed = append(relayed, ann)
		mu.Unlock()
	})

	base, err := edge.RequestTask(ctx, &protocol.TaskRequest{WorkerID: 1})
	if err != nil || !base.Accepted || base.ParamsDelta != nil || len(base.Params) == 0 {
		t.Fatalf("initial full pull: %v (resp %+v)", err, base)
	}
	params0 := append([]float64(nil), base.Params...)

	// One edge window: root (K=1) drains on the forward, the edge refreshes
	// by delta from the ack and relays downstream.
	for i := 0; i < 2; i++ {
		v, e := edge.Version()
		if _, err := edge.PushGradient(ctx, &protocol.GradientPush{
			WorkerID: 2, ModelVersion: v, ModelEpoch: e,
			Gradient: sparseGrad(i, len(params0)), BatchSize: 10,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := edge.Version(); v != 1 {
		t.Fatalf("edge cache at version %d after the forward, want 1", v)
	}
	mu.Lock()
	got := append([]protocol.ModelAnnounce(nil), relayed...)
	mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("relayed %d announces, want 1", len(got))
	}
	ann := got[0]
	if ann.ModelVersion != 1 || ann.ServerEpoch != 0 {
		t.Fatalf("announce (version %d, epoch %d), want (1, 0)", ann.ModelVersion, ann.ServerEpoch)
	}
	if ann.Delta == nil || ann.DeltaBase != 0 {
		t.Fatalf("announce must carry the 0→1 delta, got delta=%v base=%d", ann.Delta, ann.DeltaBase)
	}

	// Version-aware pull: a leaf at version 0 downloads the exact delta and
	// reconstructs the root's current parameters.
	resp, err := edge.RequestTask(ctx, &protocol.TaskRequest{
		WorkerID: 1, WantDelta: true, KnownVersion: 0, KnownEpoch: 0,
	})
	if err != nil || !resp.Accepted {
		t.Fatalf("delta pull: %v (resp %+v)", err, resp)
	}
	if resp.ParamsDelta == nil || resp.DeltaBase != 0 {
		t.Fatalf("want a retained 0→1 delta, got %+v", resp)
	}
	patched := append([]float64(nil), params0...)
	if err := resp.ParamsDelta.Patch(patched); err != nil {
		t.Fatal(err)
	}
	want, _ := root.Model()
	for i := range want {
		if patched[i] != want[i] {
			t.Fatalf("param %d: delta pull reconstructed %v, root has %v", i, patched[i], want[i])
		}
	}
}

// TestAbsorbUpstreamAnnounceRepair: an announce that cannot chain onto the
// cache (epoch change, gap) never corrupts it — the cache is flagged and the
// next upstream exchange repairs it.
func TestAbsorbUpstreamAnnounceRepair(t *testing.T) {
	ctx := context.Background()
	root := newRoot(t, server.Config{K: 1, Seed: 11, DeltaHistory: 4})
	edge := newEdge(t, Config{Upstream: root, K: 1, ID: 1_000_000})
	if err := edge.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	// A delta-less announce from a foreign epoch is refused.
	if edge.AbsorbUpstreamAnnounce(protocol.ModelAnnounce{ModelVersion: 3, ServerEpoch: 42}) {
		t.Fatal("foreign-epoch announce must not be absorbed")
	}
	if v, e := edge.Version(); v != 0 || e != 0 {
		t.Fatalf("cache moved to (%d, %d) on a refused announce", v, e)
	}

	// A stale announce is a no-op, not a repair flag.
	if edge.AbsorbUpstreamAnnounce(protocol.ModelAnnounce{ModelVersion: 0, ServerEpoch: 0}) {
		t.Fatal("stale announce must not be absorbed")
	}

	// The flagged cache repairs on the next upstream exchange: push one
	// gradient (K=1 forwards immediately) and the edge lands current.
	params, _ := root.Model()
	v, e := edge.Version()
	if _, err := edge.PushGradient(ctx, &protocol.GradientPush{
		WorkerID: 1, ModelVersion: v, ModelEpoch: e,
		Gradient: sparseGrad(0, len(params)), BatchSize: 10,
	}); err != nil {
		t.Fatal(err)
	}
	if ev, _ := edge.Version(); ev != 1 {
		t.Fatalf("edge at version %d after forward, want 1", ev)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Arch: nn.ArchSoftmaxMNIST, Algorithm: newAlgo()}); err == nil {
		t.Error("nil upstream must error")
	}
	root := newRoot(t, server.Config{})
	if _, err := New(Config{Upstream: root, Arch: nn.ArchSoftmaxMNIST}); err == nil {
		t.Error("nil algorithm must error")
	}
	var apiErr *protocol.Error
	_, err := New(Config{Arch: nn.ArchSoftmaxMNIST, Algorithm: newAlgo()})
	if !errors.As(err, &apiErr) || apiErr.Code != protocol.CodeInvalidArgument {
		t.Errorf("want structured invalid_argument, got %v", err)
	}
}

// TestEdgeDeltasMatchDiff is the edge-level equivalence oracle of the shared
// delta history: however a refresh reached the cache — the delta pull after
// a forward (the adjacent upstream delta is handed to the history as its
// step), an absorbed upstream announce, a multi-version jump, a full pull
// once the root's own history ran out, a dense window, a root restart onto a
// new incarnation — every delta the edge publishes equals
// compress.Diff(base, params, P/2) over the snapshots it served in this
// incarnation, and a base Diff abandons is absent.
func TestEdgeDeltasMatchDiff(t *testing.T) {
	ctx := context.Background()
	for _, depth := range []int{1, 4} {
		root := newRoot(t, server.Config{K: 1, Seed: 7, DeltaHistory: 2})
		up := &swapSvc{inner: root}
		edge := newEdge(t, Config{Upstream: up, K: 1, DeltaHistory: depth, ID: 1_000_000})
		if err := edge.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		paramCount := edge.core.Config().ParamCount
		rng := rand.New(rand.NewSource(int64(depth)))
		grad := func(dense bool) []float64 {
			g := make([]float64, paramCount)
			if dense {
				for i := range g {
					g[i] = rng.NormFloat64() * 1e-3
				}
				return g
			}
			for n := 1 + rng.Intn(10); n > 0; n-- {
				g[rng.Intn(paramCount)] = rng.NormFloat64()
			}
			return g
		}
		rootPush := func(g []float64) { // another edge's forward: the root moves, this edge does not
			_, v := root.Model()
			if _, err := root.PushGradient(ctx, &protocol.GradientPush{
				WorkerID: 9, ModelVersion: v, ModelEpoch: root.Epoch(), Gradient: g, BatchSize: 1,
			}); err != nil {
				t.Fatal(err)
			}
		}

		// This incarnation's snapshots, oldest first, each under a lease
		// until it is one past the depth: older storage is the core's to
		// recycle while the oracle runs.
		served := []*ingest.Lease{edge.core.Lease()}
		absorbed, published := 0, 0
		for step := 0; step < 80; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // a leaf window through the edge: forward, then delta pull
				v, e := edge.Version()
				_, err := edge.PushGradient(ctx, &protocol.GradientPush{
					WorkerID: 1, ModelVersion: v, ModelEpoch: e, Gradient: grad(op == 0), BatchSize: 1,
				})
				if err != nil && !protocol.IsCode(err, protocol.CodeVersionConflict) {
					t.Fatal(err)
				}
			case op < 7: // the root moves 1–3 versions behind the edge's back
				for n := 1 + rng.Intn(3); n > 0; n-- {
					rootPush(grad(false))
				}
			case op < 9: // …and announces it over a subscribed stream
				root.OnSnapshot(func(ann protocol.ModelAnnounce) {
					if edge.AbsorbUpstreamAnnounce(ann) {
						absorbed++
					}
				})
				rootPush(grad(false))
				root.OnSnapshot(nil)
			default: // root restart: fresh incarnation, version stream rewound
				root = newRoot(t, server.Config{K: 1, Seed: 7, DeltaHistory: 2, BootEpoch: int64(step + 1)})
				up.set(root)
			}

			snap := edge.core.Lease()
			if last := served[len(served)-1]; snap == last {
				snap.Release()
				continue
			} else if snap.Epoch != last.Epoch {
				for _, old := range served {
					old.Release()
				}
				served = nil
			}
			bases := served
			if len(bases) > depth {
				// One past the depth: not retained, so a full pull.
				if past := bases[len(bases)-depth-1]; snap.Delta(past.Version) != nil {
					t.Fatalf("depth %d step %d: base v%d is past the history but still has a delta", depth, step, past.Version)
				}
				bases = bases[len(bases)-depth:]
			}
			if served = append(served, snap); len(served) > depth+1 {
				served[0].Release()
				served = served[1:]
			}
			want := 0
			for _, b := range bases {
				d, ok := compress.Diff(b.Params(), snap.Params(), paramCount/2)
				got := snap.Delta(b.Version)
				if ok != (got != nil) {
					t.Fatalf("depth %d step %d base v%d→v%d: Diff ok=%v, published=%v", depth, step, b.Version, snap.Version, ok, got != nil)
				}
				if ok {
					want++
					if !reflect.DeepEqual(*got, d) {
						t.Fatalf("depth %d step %d base v%d→v%d: published delta differs from Diff (nnz %d vs %d)",
							depth, step, b.Version, snap.Version, len(got.Indices), len(d.Indices))
					}
				}
			}
			published += want
		}
		if absorbed == 0 || published == 0 || edge.Resyncs() == 0 {
			t.Fatalf("depth %d: sequence absorbed %d announces, published %d deltas, resynced %d times — a path went unexercised",
				depth, absorbed, published, edge.Resyncs())
		}
	}
}

// TestRelayedStepsMatchDiff is the step oracle of an edge's relay, in two
// parts. First, over a random run of upstream deltas absorbed one after
// another — rewriting coordinates with the bits they hold, writing NaNs
// (some over NaNs), flipping zeros between +0 and −0, one in five past the
// half-vector bound — a leaf that patches each relayed announce (or pulls
// full when the relay carries no delta) holds the edge's cache bit for bit.
// Second, when the deltas come from a real upstream — a root's windows,
// announced over its snapshot hook — every step the edge relays equals
// compress.Diff(prev, next, P/2) field for field, and is absent exactly
// when Diff abandons.
func TestRelayedStepsMatchDiff(t *testing.T) {
	root := newRoot(t, server.Config{K: 1, Seed: 7, DeltaHistory: 2})
	edge := newEdge(t, Config{Upstream: root, K: 1, DeltaHistory: 2, ID: 1_000_000})
	if err := edge.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	var relayed []protocol.ModelAnnounce
	edge.OnAnnounce(func(ann protocol.ModelAnnounce) { relayed = append(relayed, ann) })
	P := edge.core.Config().ParamCount
	rng := rand.New(rand.NewSource(5))
	prev := edge.core.Lease()
	leaf := append([]float64(nil), prev.Params()...)
	// Each case must be seen at least once in a relayed delta: a rewrite of
	// the bits a coordinate holds, a zero whose sign flipped, a NaN written
	// over a NaN; and a window whose relay carries no delta.
	var kept, flipped, nanOverNaN, full int
	for w := 0; w < 60; w++ {
		cur := prev.Params()
		n := 1 + rng.Intn(200)
		if rng.Intn(5) == 0 {
			n = P/2 + P/4
		}
		write := map[int32]float64{}
		for _, c := range rng.Perm(P)[:n] {
			switch op := rng.Intn(40); {
			case op < 8:
				write[int32(c)] = cur[c]
			case op < 16:
				write[int32(c)] = math.Copysign(0, rng.NormFloat64())
			case op < 17:
				write[int32(c)] = math.NaN()
			default:
				write[int32(c)] = rng.NormFloat64()
			}
		}
		if i := slices.IndexFunc(cur, math.IsNaN); i >= 0 && rng.Intn(2) == 0 {
			write[int32(i)] = math.NaN()
		}
		if i := slices.Index(cur, 0); i >= 0 {
			write[int32(i)] = -cur[i] // +0 ↔ −0
		}
		delta := &compress.Sparse{Len: P}
		var keptW, flippedW, nanW int // this window's cases, counted if relayed as a delta
		for _, c := range slices.Sorted(maps.Keys(write)) {
			delta.Indices, delta.Values = append(delta.Indices, c), append(delta.Values, write[c])
			switch v := write[c]; {
			case math.IsNaN(v) && math.IsNaN(cur[c]):
				nanW++
			case v == 0 && cur[c] == 0 && math.Signbit(v) != math.Signbit(cur[c]):
				flippedW++
			case v == cur[c]:
				keptW++
			}
		}
		relayed = relayed[:0]
		if !edge.AbsorbUpstreamAnnounce(protocol.ModelAnnounce{
			ModelVersion: prev.Version + 1, ServerEpoch: prev.Epoch, DeltaBase: prev.Version, Delta: delta,
		}) {
			t.Fatalf("window %d: the edge refused a delta chaining onto its cache", w)
		}
		next := edge.core.Lease()
		if len(relayed) != 1 || relayed[0].ModelVersion != next.Version {
			t.Fatalf("window %d: relayed %+v for v%d", w, relayed, next.Version)
		}
		if ann := relayed[0]; ann.Delta != nil && ann.DeltaBase == prev.Version {
			if err := ann.Delta.Patch(leaf); err != nil {
				t.Fatalf("window %d: relayed delta: %v", w, err)
			}
			kept, flipped, nanOverNaN = kept+keptW, flipped+flippedW, nanOverNaN+nanW
		} else {
			leaf = append(leaf[:0], next.Params()...)
			full++
		}
		for i, x := range next.Params() {
			if math.Float64bits(leaf[i]) != math.Float64bits(x) {
				t.Fatalf("window %d: leaf holds %v (%#x) at %d, the edge %v (%#x)",
					w, leaf[i], math.Float64bits(leaf[i]), i, x, math.Float64bits(x))
			}
		}
		prev.Release()
		prev = next
	}
	prev.Release()
	if kept == 0 || flipped == 0 || nanOverNaN == 0 || full == 0 {
		t.Fatalf("a case went unexercised: %d kept bits, %d sign flips, %d NaNs over NaNs relayed; %d full pulls",
			kept, flipped, nanOverNaN, full)
	}

	// A real upstream: a fresh root and edge, leaf windows forwarded through
	// the edge (top-k, so the root records its step as it applies, some
	// writes below half an ulp of their parameter; or dense, past the bound)
	// and other edges' windows moving the root behind this edge's back, so
	// the delta pull after a forward may span several versions.
	root = newRoot(t, server.Config{K: 1, Seed: 7, DeltaHistory: 2})
	edge = newEdge(t, Config{Upstream: root, K: 1, DeltaHistory: 2, ID: 1_000_000})
	if err := edge.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	edge.OnAnnounce(func(ann protocol.ModelAnnounce) { relayed = append(relayed, ann) })
	push := func(svc service.Service, version int, epoch int64) {
		p := &protocol.GradientPush{WorkerID: 9, ModelVersion: version, ModelEpoch: epoch, BatchSize: 1}
		if rng.Intn(6) == 0 {
			p.Gradient = make([]float64, P)
			for i := range p.Gradient {
				p.Gradient[i] = rng.NormFloat64()
			}
		} else {
			p.GradientLen = P
			for _, c := range slices.Sorted(slices.Values(rng.Perm(P)[:1+rng.Intn(50)])) {
				g := rng.NormFloat64()
				if rng.Intn(4) == 0 {
					g *= 1e-30
				}
				p.SparseIndices, p.SparseValues = append(p.SparseIndices, int32(c)), append(p.SparseValues, g)
			}
		}
		if _, err := svc.PushGradient(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	var published, abandoned, spanned int
	prev = edge.core.Lease()
	for w := 0; w < 60; w++ {
		if rng.Intn(3) == 0 {
			for n := 1 + rng.Intn(2); n > 0; n-- {
				_, v := root.Model()
				push(root, v, root.Epoch())
			}
		}
		relayed = relayed[:0]
		push(edge, prev.Version, prev.Epoch)
		next := edge.core.Lease()
		if len(relayed) != 1 || relayed[0].ModelVersion != next.Version {
			t.Fatalf("window %d: relayed %+v for v%d", w, relayed, next.Version)
		}
		if next.Version > prev.Version+1 {
			spanned++
		}
		want, ok := compress.Diff(prev.Params(), next.Params(), P/2)
		got := relayed[0].Delta
		if ok != (got != nil) {
			t.Fatalf("window %d: Diff ok=%v, relayed=%v", w, ok, got != nil)
		}
		if ok {
			published++
			if relayed[0].DeltaBase != prev.Version || !sameDelta(*got, want) {
				t.Fatalf("window %d: relayed step from v%d differs from Diff (nnz %d vs %d)",
					w, relayed[0].DeltaBase, len(got.Indices), len(want.Indices))
			}
		} else {
			abandoned++
		}
		prev.Release()
		prev = next
	}
	prev.Release()
	if published == 0 || abandoned == 0 || spanned == 0 {
		t.Fatalf("%d windows relayed a step, %d abandoned it, %d spanned versions: a path went unexercised",
			published, abandoned, spanned)
	}
}

// sameDelta is field-for-field equality with NaN == NaN.
func sameDelta(a, b compress.Sparse) bool {
	return a.Len == b.Len && slices.Equal(a.Indices, b.Indices) &&
		slices.EqualFunc(a.Values, b.Values, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
