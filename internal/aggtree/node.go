// Package aggtree implements FLeet's hierarchical aggregation tier: edge
// nodes that stand between leaf workers and the parameter server (or
// another edge — tiers stack), so the root sees O(fan-in) pushes per
// window instead of O(workers × rounds). One server owning the whole
// fleet is the hard ceiling on scale; the paper's update pipeline
// (admission → staleness scaling → window aggregation) is associative per
// window, which makes a tree the natural scale-out.
//
// A Node implements service.Service, so leaf workers — and every
// transport and interceptor in the system — run against it unchanged:
//
//	leaf ─▶ Node.RequestTask   local admission chain, model served from
//	                           the edge's cached upstream snapshot
//	leaf ─▶ Node.PushGradient  local pipeline stages + window aggregator;
//	                           every K-th push drains the window and
//	                           forwards ONE aggregated direction upstream
//
// The upstream push carries Contributing — how many leaf gradients the
// direction sums — so Equation 3's K-sum magnitude is preserved
// end-to-end: for the mean path the tree is bit-for-bit equivalent to a
// flat topology (see TestTreeMeanEquivalentToFlat).
//
// Model distribution runs the other way: the edge caches the upstream
// model as an immutable snapshot, refreshes it by delta pull after each
// upstream window push (or by absorbing upstream stream announces —
// AbsorbUpstreamAnnounce), and relays every refresh downstream as a
// {version, epoch, sparse-delta} announce (OnAnnounce), composing
// multi-step jumps into one exact v→v+k patch.
//
// Epoch conflicts cascade through the tier instead of value-poisoning
// edge caches: a root restart (incarnation epoch bump) makes the edge's
// next upstream push fail with version_conflict, the edge drops its
// snapshot and re-pulls full, and every leaf push still carrying the old
// epoch is then rejected by the edge the same way — the leaves resync
// with the ordinary worker protocol, never knowing how tall the tree is.
package aggtree

import (
	"context"
	"sync"
	"sync/atomic"

	"fleet/internal/compress"
	"fleet/internal/iprof"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/pipeline"
	"fleet/internal/protocol"
	"fleet/internal/sched"
	"fleet/internal/service"
	"fleet/internal/simrand"
)

// Config parameterizes an edge-aggregator node.
type Config struct {
	// Upstream is the service this edge pulls models from and pushes
	// aggregated window directions to: the root server, or another edge.
	Upstream service.Service
	// Arch is the model architecture; it must match the upstream's.
	Arch nn.Arch
	// Algorithm is the local aggregation rule (typically AdaSGD), used by
	// the default pipeline's staleness stage and for label absorption.
	// Never share an instance with the upstream server — its staleness
	// history is tier-local state.
	Algorithm learning.Algorithm
	// K is the local window: leaf gradients aggregated per upstream push
	// (default 1 — pure relay with per-push forwarding).
	K int
	// Pipeline, when non-nil, replaces the edge's update pipeline (the
	// same composable stages + window aggregator as server.Config). When
	// nil the default is a staleness stage wrapping Algorithm in front of
	// a sharded mean window with Shards stripes. Stateful: one per node.
	Pipeline *pipeline.Pipeline
	// Shards stripes the default mean window (ignored when Pipeline set).
	Shards int
	// Admission, when non-nil, is the local task-admission chain — edge
	// nodes make admission decisions without a round trip to the root.
	// Nil admits everything at DefaultBatchSize.
	Admission sched.AdmissionPolicy
	// TimeProfiler and EnergyProfiler, when set, absorb the measured task
	// costs leaf pushes report, exactly as the server's do — profiling
	// lives at the tier that admits.
	TimeProfiler   *iprof.IProf
	EnergyProfiler *iprof.IProf
	// DefaultBatchSize seeds the admission chain (default 100).
	DefaultBatchSize int
	// DeltaHistory is how many recent upstream versions the edge keeps
	// exact sparse deltas for, to serve version-aware leaf pulls and
	// relay announces. Default 4; negative disables.
	DeltaHistory int
	// ID is the worker ID this edge identifies as upstream.
	ID int
}

// edgeSnapshot is one immutable cached state of the upstream model, in the
// upstream's (version, epoch) clock — the edge is transparent: leaves cache
// exactly the coordinates the root minted, so epoch conflicts propagate
// without translation.
type edgeSnapshot struct {
	version int
	epoch   int64
	params  []float64
	// deltas maps an older upstream version v to the exact sparse
	// difference params(v) → params, for version-aware leaf pulls.
	deltas map[int]*compress.Sparse
}

// windowPush is one drained window ready to forward upstream.
type windowPush struct {
	vec          []float64
	contributing int
	batch        int
	labels       []int
	staleMin     int
	staleMax     int
}

// Node is one edge aggregator. All exported methods are safe for
// concurrent use.
type Node struct {
	cfg        Config
	paramCount int
	classes    int
	labels     *learning.LabelTracker
	pipe       *pipeline.Pipeline
	// sparseOK caches pipe.SparseCapable(): top-k leaf pushes scatter
	// straight into the edge's window without densifying (same gate as the
	// root server's).
	sparseOK bool
	admit    sched.AdmissionPolicy

	// snap is the immutable cached upstream model, read lock-free by the
	// leaf-serving paths; nil until the first sync.
	snap atomic.Pointer[edgeSnapshot]

	tasksServed  atomic.Int64
	tasksDropped atomic.Int64
	rejectMu     sync.Mutex
	rejects      map[string]int

	// mu guards the local window state and push counters.
	mu            sync.Mutex
	pending       int
	gradientsIn   int
	leafGradients int
	staleSum      float64
	drainErrors   int
	winHas        bool
	winContrib    int
	winBatch      int
	winLabels     []int
	winStaleMin   int
	winStaleMax   int

	// upMu serializes every upstream exchange (sync, window forward,
	// refresh) and guards the delta history. Lock order mu → (unlock) →
	// upMu: the window drain captures under mu and forwards after release.
	upMu    sync.Mutex
	history *compress.History

	// relayHook observes every snapshot refresh as a downstream announce
	// (OnAnnounce); the stream transport broadcasts from it.
	relayHook atomic.Pointer[func(protocol.ModelAnnounce)]

	// needRefresh marks the cache behind upstream (a missed or unabsorbed
	// announce); the next upstream exchange repairs it.
	needRefresh atomic.Bool

	upstreamPushes    atomic.Int64
	upstreamConflicts atomic.Int64
	resyncs           atomic.Int64
	lostWindows       atomic.Int64
}

var _ service.Service = (*Node)(nil)

// New builds an edge node. The upstream model is pulled lazily on first
// use; call Sync to fail fast at boot instead.
func New(cfg Config) (*Node, error) {
	if cfg.Upstream == nil {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument, "aggtree: Upstream is required")
	}
	if cfg.Algorithm == nil {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument, "aggtree: Algorithm is required")
	}
	if cfg.K <= 0 {
		cfg.K = 1
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.DefaultBatchSize <= 0 {
		cfg.DefaultBatchSize = 100
	}
	if cfg.DeltaHistory == 0 {
		cfg.DeltaHistory = 4
	}
	if cfg.DeltaHistory < 0 {
		cfg.DeltaHistory = 0
	}
	if cfg.Pipeline == nil {
		stage, err := pipeline.NewStalenessScale(cfg.Algorithm)
		if err != nil {
			return nil, protocol.AsError(err)
		}
		cfg.Pipeline, err = pipeline.New(pipeline.NewMeanWindow(cfg.Shards), stage)
		if err != nil {
			return nil, protocol.AsError(err)
		}
	}
	if cfg.Admission == nil {
		cfg.Admission = sched.NewChain()
	}
	scratch := cfg.Arch.Build(simrand.New(0))
	n := &Node{
		cfg:        cfg,
		paramCount: scratch.ParamCount(),
		classes:    cfg.Arch.Classes(),
		labels:     learning.NewLabelTracker(cfg.Arch.Classes()),
		pipe:       cfg.Pipeline,
		sparseOK:   cfg.Pipeline.SparseCapable(),
		admit:      cfg.Admission,
		rejects:    map[string]int{},
		history:    compress.NewHistory(cfg.DeltaHistory),
	}
	return n, nil
}

// Sync pulls the upstream model now (full), so a booting edge can refuse to
// serve instead of failing its first leaf. Idempotent once synced.
func (n *Node) Sync(ctx context.Context) error {
	if n.snap.Load() != nil {
		return nil
	}
	n.upMu.Lock()
	defer n.upMu.Unlock()
	if n.snap.Load() != nil {
		return nil
	}
	return n.pullLocked(ctx, false)
}

// ensureSynced returns the cached snapshot, lazily performing the first
// upstream pull.
func (n *Node) ensureSynced(ctx context.Context) (*edgeSnapshot, error) {
	if s := n.snap.Load(); s != nil {
		return s, nil
	}
	if err := n.Sync(ctx); err != nil {
		return nil, err
	}
	return n.snap.Load(), nil
}

// RequestTask implements service.Service for leaf workers: the local
// admission chain decides, and the model is served from the edge's cached
// upstream snapshot — full, or as a sparse delta against a version the
// edge's history retains. The accept path is lock-free and O(1) in the
// model size, exactly like the root's.
func (n *Node) RequestTask(ctx context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, protocol.AsError(err)
	}
	if _, err := n.ensureSynced(ctx); err != nil {
		return nil, err
	}
	if err := protocol.ValidateLabelCounts("TaskRequest.label_counts", req.LabelCounts, n.classes); err != nil {
		return nil, err
	}

	areq := &sched.TaskRequest{
		Wire:       req,
		BatchSize:  n.cfg.DefaultBatchSize,
		Similarity: n.labels.Similarity(req.LabelCounts),
	}
	decision, err := n.admit.Admit(ctx, areq)
	if err != nil {
		return nil, protocol.AsError(err)
	}
	if err := ctx.Err(); err != nil {
		return nil, protocol.AsError(err)
	}
	if !decision.Accept {
		n.tasksDropped.Add(1)
		n.rejectMu.Lock()
		n.rejects[decision.Policy]++
		n.rejectMu.Unlock()
		return &protocol.TaskResponse{Accepted: false, Reason: decision.Reason}, nil
	}

	n.tasksServed.Add(1)
	snap := n.snap.Load()
	resp := &protocol.TaskResponse{
		Accepted:     true,
		ModelVersion: snap.version,
		BatchSize:    decision.BatchSize,
		ServerEpoch:  snap.epoch,
	}
	if req.WantDelta && req.KnownEpoch == snap.epoch {
		if req.KnownVersion == snap.version {
			resp.ParamsDelta = &compress.Sparse{Len: len(snap.params)}
			resp.DeltaBase = req.KnownVersion
			return resp, nil
		}
		if d, ok := snap.deltas[req.KnownVersion]; ok {
			resp.ParamsDelta = d
			resp.DeltaBase = req.KnownVersion
			return resp, nil
		}
	}
	resp.Params = snap.params // shared immutable snapshot storage
	resp.Full = true
	return resp, nil
}

// PushGradient implements service.Service for leaf workers: the gradient
// runs the local pipeline (staleness scaling against the edge's cached
// clock, DP, filters) into the window aggregator; every K-th accepted push
// drains the window and forwards the single summed direction upstream,
// weighted by the count of contributing leaf gradients.
//
// The leaf's ack never depends on the upstream exchange: by the time the
// window forwards, this gradient is committed locally — an upstream
// failure discards the window (counted, like a drain error) rather than
// inviting a leaf retry that would double-contribute.
func (n *Node) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	if err := ctx.Err(); err != nil {
		return nil, protocol.AsError(err)
	}
	snap, err := n.ensureSynced(ctx)
	if err != nil {
		return nil, err
	}
	// Every uplink dialect — dense, top-k, quantized top-k — decodes
	// through the shared payload helper, exactly as at the root.
	payload, err := protocol.DecodeGradientPayload(push, n.paramCount)
	if err != nil {
		return nil, err
	}
	if push.BatchSize <= 0 {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument,
			"aggtree: non-positive batch size %d", push.BatchSize)
	}
	if err := protocol.ValidateLabelCounts("GradientPush.label_counts", push.LabelCounts, n.classes); err != nil {
		return nil, err
	}

	if n.cfg.TimeProfiler != nil && push.CompTimeSec > 0 && len(push.TimeFeatures) > 0 {
		n.cfg.TimeProfiler.Observe(iprof.Observation{
			DeviceModel: push.DeviceModel,
			Features:    push.TimeFeatures,
			Alpha:       push.CompTimeSec / float64(push.BatchSize),
		})
	}
	if n.cfg.EnergyProfiler != nil && push.EnergyPct > 0 && len(push.EnergyFeatures) > 0 {
		n.cfg.EnergyProfiler.Observe(iprof.Observation{
			DeviceModel: push.DeviceModel,
			Features:    push.EnergyFeatures,
			Alpha:       push.EnergyPct / float64(push.BatchSize),
		})
	}

	sim := n.labels.Similarity(push.LabelCounts)
	if err := ctx.Err(); err != nil {
		return nil, protocol.AsError(err)
	}

	// The epoch gate is where a root restart cascades: after the edge
	// resynced onto the new incarnation, every leaf push still carrying
	// the old epoch is rejected exactly as the root would — the leaf drops
	// its cache and re-pulls from the edge, one tier at a time.
	if push.ModelEpoch != snap.epoch {
		return nil, protocol.Errorf(protocol.CodeVersionConflict,
			"aggtree: gradient from server incarnation %d (edge is at incarnation %d); re-pull and recompute",
			push.ModelEpoch, snap.epoch)
	}
	staleness := snap.version - push.ModelVersion
	if staleness < 0 {
		return nil, protocol.Errorf(protocol.CodeVersionConflict,
			"aggtree: gradient from future model version %d (edge at %d)", push.ModelVersion, snap.version)
	}

	// Sparse fast path, mirroring the root server: a validated ascending
	// top-k view scatters straight into the edge window's shard
	// accumulators; anything else densifies up front. Decoded payloads
	// always arrive Ascending (the decoder canonicalizes duplicates with
	// densify's last-value-wins semantics).
	g := &pipeline.Gradient{
		Meta: learning.GradientMeta{
			Staleness:  staleness,
			Similarity: sim,
			BatchSize:  push.BatchSize,
			WorkerID:   push.WorkerID,
		},
		Scale: 1,
	}
	if payload.Sparse() && payload.Ascending && n.sparseOK {
		g.Vec = payload.Values
		g.Indices = payload.Indices
		g.DenseLen = n.paramCount
	} else {
		g.Vec = payload.Densify(n.paramCount)
	}
	if err := n.pipe.Process(g); err != nil {
		return nil, err
	}
	n.cfg.Algorithm.Observe(g.Meta)
	absorb := n.cfg.Algorithm.AbsorbWeight(g.Meta)
	n.labels.RecordWeighted(push.LabelCounts, absorb)
	n.pipe.Add(g)

	// A push from a stacked sub-tier already aggregates Contributing leaf
	// gradients; count its weight and fold its staleness bounds in.
	contrib := push.Contributing
	if contrib <= 0 {
		contrib = 1
	}
	sMin, sMax := staleness, staleness
	if push.Contributing > 0 {
		if push.StalenessMin < sMin {
			sMin = push.StalenessMin
		}
		if push.StalenessMax > sMax {
			sMax = push.StalenessMax
		}
	}

	var up *windowPush
	n.mu.Lock()
	n.gradientsIn++
	n.leafGradients += contrib
	n.staleSum += float64(staleness)
	if !n.winHas {
		n.winHas = true
		n.winStaleMin, n.winStaleMax = sMin, sMax
		n.winLabels = make([]int, n.classes)
	} else {
		if sMin < n.winStaleMin {
			n.winStaleMin = sMin
		}
		if sMax > n.winStaleMax {
			n.winStaleMax = sMax
		}
	}
	n.winContrib += contrib
	n.winBatch += push.BatchSize
	for i, c := range push.LabelCounts {
		n.winLabels[i] += c
	}
	n.pending++
	if n.pending >= n.cfg.K {
		n.pending = 0
		up = n.takeWindowLocked()
	}
	ack := &protocol.PushAck{Applied: true, Staleness: staleness, Scale: g.Scale}
	n.mu.Unlock()

	if up != nil {
		n.forwardWindow(ctx, up)
	}
	// The edge's clock after the push — refreshed when this push completed
	// a window that advanced the upstream model, mirroring the root's ack.
	ack.NewVersion = n.snap.Load().version
	return ack, nil
}

// takeWindowLocked drains the local aggregator into one summed direction
// and captures the window's metadata for the upstream push, resetting the
// window state. Callers hold n.mu. A drain failure (a window the rule
// rejects) discards the window — the leaves were acked, so there is no
// addressee; it is counted in drainErrors.
func (n *Node) takeWindowLocked() *windowPush {
	direction := make([]float64, n.paramCount)
	err := n.pipe.Drain(func(dir []float64) {
		for i, v := range dir {
			direction[i] += v
		}
	})
	up := &windowPush{
		vec:          direction,
		contributing: n.winContrib,
		batch:        n.winBatch,
		labels:       n.winLabels,
		staleMin:     n.winStaleMin,
		staleMax:     n.winStaleMax,
	}
	n.winHas = false
	n.winContrib = 0
	n.winBatch = 0
	n.winLabels = nil
	if err != nil {
		n.drainErrors++
		return nil
	}
	if up.contributing == 0 {
		return nil // concurrent Flush already took this window
	}
	return up
}

// forwardWindow pushes one drained window direction upstream and refreshes
// the cached model from the ack. An upstream version_conflict is the epoch
// cascade's first domino: the window is lost (its leaves were acked — the
// same invariant as a drain error), the edge re-pulls full onto the new
// incarnation, and subsequent leaf pushes conflict locally until the
// leaves resync too.
func (n *Node) forwardWindow(ctx context.Context, w *windowPush) {
	n.upMu.Lock()
	defer n.upMu.Unlock()
	cur := n.snap.Load()
	push := &protocol.GradientPush{
		WorkerID:     n.cfg.ID,
		DeviceModel:  "aggtree-edge",
		ModelVersion: cur.version,
		ModelEpoch:   cur.epoch,
		Gradient:     w.vec,
		BatchSize:    w.batch,
		LabelCounts:  w.labels,
		Contributing: w.contributing,
		StalenessMin: w.staleMin,
		StalenessMax: w.staleMax,
	}
	ack, err := n.cfg.Upstream.PushGradient(ctx, push)
	if err != nil {
		n.lostWindows.Add(1)
		if protocol.IsCode(err, protocol.CodeVersionConflict) {
			n.upstreamConflicts.Add(1)
			if rerr := n.pullLocked(ctx, false); rerr == nil {
				n.resyncs.Add(1)
			}
		}
		return
	}
	n.upstreamPushes.Add(1)
	if ack.NewVersion > cur.version || n.needRefresh.Swap(false) {
		// The upstream model moved (this window may have completed the
		// upstream window, or announces were missed): refresh by delta.
		_ = n.pullLocked(ctx, true)
	}
}

// Flush drains a partial local window upstream — the shutdown path, so a
// terminating edge does not strand acked leaf gradients. No-op when the
// window is empty.
func (n *Node) Flush(ctx context.Context) error {
	var up *windowPush
	n.mu.Lock()
	if n.pending > 0 {
		n.pending = 0
		up = n.takeWindowLocked()
	}
	n.mu.Unlock()
	if up != nil {
		n.forwardWindow(ctx, up)
	}
	return nil
}

// pullLocked performs one upstream model pull — delta-aware against the
// current snapshot when delta is true, full otherwise — and publishes the
// result. Callers hold n.upMu.
func (n *Node) pullLocked(ctx context.Context, delta bool) error {
	cur := n.snap.Load()
	req := &protocol.TaskRequest{WorkerID: n.cfg.ID, DeviceModel: "aggtree-edge"}
	if delta && cur != nil {
		req.WantDelta = true
		req.KnownVersion = cur.version
		req.KnownEpoch = cur.epoch
	}
	resp, err := n.cfg.Upstream.RequestTask(ctx, req)
	if err != nil {
		return protocol.AsError(err)
	}
	if !resp.Accepted {
		return protocol.Errorf(protocol.CodeUnavailable,
			"aggtree: upstream declined model pull: %s", resp.Reason)
	}
	var params []float64
	switch {
	case resp.ParamsDelta != nil:
		if cur == nil || resp.DeltaBase != cur.version || resp.ServerEpoch != cur.epoch {
			return protocol.Errorf(protocol.CodeInternal,
				"aggtree: upstream delta from (version %d, epoch %d), cache at (%d, %d)",
				resp.DeltaBase, resp.ServerEpoch, cur.version, cur.epoch)
		}
		params = make([]float64, len(cur.params))
		copy(params, cur.params)
		if err := resp.ParamsDelta.Patch(params); err != nil {
			return protocol.AsError(err)
		}
	case len(resp.Params) == n.paramCount:
		// In-process upstreams hand out their immutable snapshot storage;
		// the edge never mutates it, so sharing is safe (and what keeps
		// the tree's pull path O(1) in the model size).
		params = resp.Params
	default:
		return protocol.Errorf(protocol.CodeInternal,
			"aggtree: upstream served %d params, architecture needs %d", len(resp.Params), n.paramCount)
	}
	var patched []int32
	if resp.ParamsDelta != nil {
		patched = resp.ParamsDelta.Indices
	}
	n.publishLocked(resp.ModelVersion, resp.ServerEpoch, params, patched)
	return nil
}

// publishLocked installs a new cached snapshot, advances the delta
// history, and relays the refresh downstream as an announce. Callers hold
// n.upMu. patched lists the coordinates of the upstream delta params was
// just patched with (nil after a full pull), so the history re-examines
// only those instead of rediscovering them. An epoch change resets the
// history — old params are meaningless as delta bases across incarnations
// — and relays a delta-less announce, which subscribed leaves ignore until
// their next push conflicts.
func (n *Node) publishLocked(version int, epoch int64, params []float64, patched []int32) {
	old := n.snap.Load()
	if old != nil && old.version == version && old.epoch == epoch {
		return
	}
	next := &edgeSnapshot{version: version, epoch: epoch, params: params}
	if old != nil && old.epoch == epoch {
		next.deltas = n.history.Advance(version, params, patched)
	} else {
		n.history.Reset(version, params)
	}
	n.snap.Store(next)

	if fn := n.relayHook.Load(); fn != nil {
		ann := protocol.ModelAnnounce{ModelVersion: version, ServerEpoch: epoch}
		if old != nil {
			if d, ok := next.deltas[old.version]; ok {
				// One exact patch even when the refresh jumped several
				// versions — overwrite deltas compose by construction.
				ann.Delta = d
				ann.DeltaBase = old.version
			}
		}
		(*fn)(ann)
	}
}

// AbsorbUpstreamAnnounce folds one upstream model announcement into the
// cached snapshot — the streaming-transport wiring: subscribe the edge's
// upstream stream.Client with this as OnAnnounce, and the refresh (plus
// the downstream relay) happens without a pull round trip. It is strictly
// RPC-free: only a delta chaining exactly onto the cache applies; anything
// else — epoch change, chain gap, delta-less drain — flags the cache for
// repair at the next upstream exchange. Returns whether the announce was
// absorbed. Full half-precision announces (ModelAnnounce.ParamsF16) are
// deliberately not absorbed here: the edge's cache is a delta base for its
// own leaves, so quantized params would poison downstream patches — it
// takes the needRefresh path and repairs with an exact pull instead
// (absorbing f16 and re-announcing exactly is a follow-on).
func (n *Node) AbsorbUpstreamAnnounce(ann protocol.ModelAnnounce) bool {
	if !n.upMu.TryLock() {
		// An upstream exchange is in flight — possibly on this very
		// goroutine (an in-process upstream delivers its announce hook
		// inside the push that drained). That exchange sees the new
		// version in its ack and refreshes; just flag it.
		n.needRefresh.Store(true)
		return false
	}
	defer n.upMu.Unlock()
	cur := n.snap.Load()
	if cur == nil {
		return false // not synced yet; the lazy first pull fetches current
	}
	if ann.ServerEpoch != cur.epoch {
		n.needRefresh.Store(true)
		return false
	}
	if ann.ModelVersion <= cur.version {
		return false // stale or duplicate
	}
	if ann.Delta == nil || ann.DeltaBase != cur.version {
		n.needRefresh.Store(true)
		return false
	}
	params := make([]float64, len(cur.params))
	copy(params, cur.params)
	if err := ann.Delta.Patch(params); err != nil {
		n.needRefresh.Store(true)
		return false
	}
	n.publishLocked(ann.ModelVersion, ann.ServerEpoch, params, ann.Delta.Indices)
	return true
}

// OnAnnounce registers fn to observe every downstream relay announce: the
// edge's model refreshes, each carried as {version, epoch, sparse delta}
// in the upstream's coordinates. The stream transport broadcasts to
// subscribed leaf sessions from it. fn runs on the goroutine that
// refreshed (a forwarding push, or the upstream announce loop); keep it
// non-blocking. A nil fn unregisters.
func (n *Node) OnAnnounce(fn func(protocol.ModelAnnounce)) {
	if fn == nil {
		n.relayHook.Store(nil)
		return
	}
	n.relayHook.Store(&fn)
}

// Version returns the cached upstream model clock (0, 0 before first sync).
func (n *Node) Version() (version int, epoch int64) {
	if s := n.snap.Load(); s != nil {
		return s.version, s.epoch
	}
	return 0, 0
}

// UpstreamPushes returns how many window directions were forwarded.
func (n *Node) UpstreamPushes() int64 { return n.upstreamPushes.Load() }

// UpstreamConflicts returns how many forwards the upstream rejected as
// version_conflict (each costs the window and triggers an edge resync).
func (n *Node) UpstreamConflicts() int64 { return n.upstreamConflicts.Load() }

// Resyncs returns how many full re-pulls recovered from an upstream
// incarnation change.
func (n *Node) Resyncs() int64 { return n.resyncs.Load() }

// LostWindows returns how many drained windows failed to land upstream
// (conflicts included); their leaf gradients were acked and are gone —
// the tree analogue of Stats.DrainErrors.
func (n *Node) LostWindows() int64 { return n.lostWindows.Load() }

// Stats implements service.Service with edge-local diagnostics: the cached
// model clock, the local pipeline/admission composition, and the tier's
// own push counters. GradientsIn counts pushes into this edge;
// LeafGradients the individual worker gradients they represent.
func (n *Node) Stats(ctx context.Context) (*protocol.Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, protocol.AsError(err)
	}
	served := int(n.tasksServed.Load())
	dropped := int(n.tasksDropped.Load())
	n.rejectMu.Lock()
	var rejects map[string]int
	if len(n.rejects) > 0 {
		rejects = make(map[string]int, len(n.rejects))
		for k, v := range n.rejects {
			rejects[k] = v
		}
	}
	n.rejectMu.Unlock()

	var version int
	var epoch int64
	if s := n.snap.Load(); s != nil {
		version, epoch = s.version, s.epoch
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	mean := 0.0
	if n.gradientsIn > 0 {
		mean = n.staleSum / float64(n.gradientsIn)
	}
	return &protocol.Stats{
		ModelVersion:      version,
		TasksServed:       served,
		TasksRejected:     dropped,
		TasksDropped:      dropped,
		GradientsIn:       n.gradientsIn,
		LeafGradients:     n.leafGradients,
		MeanStaleness:     mean,
		PipelineStages:    n.pipe.StageNames(),
		Aggregator:        n.pipe.AggregatorName(),
		AdmissionPolicies: sched.Names(n.admit),
		RejectsByPolicy:   rejects,
		DrainErrors:       n.drainErrors + int(n.lostWindows.Load()),
		ServerEpoch:       epoch,
	}, nil
}
