// Package aggtree implements FLeet's hierarchical aggregation tier: edge
// nodes that stand between leaf workers and the parameter server (or
// another edge — tiers stack), so the root sees O(fan-in) pushes per
// window instead of O(workers × rounds). One server owning the whole
// fleet is the hard ceiling on scale; the paper's update pipeline
// (admission → staleness scaling → window aggregation) is associative per
// window, which makes a tree the natural scale-out.
//
// A Node implements service.Service, so leaf workers — and every
// transport and interceptor in the system — run against it unchanged. The
// learning-task path is internal/ingest's, the one the root runs; this
// package is the edge's window sink — what a full window does here is
// travel upstream — plus the cached upstream snapshot the core serves from:
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
// A window of top-k leaf pushes travels as a lossless top-k push: when the
// aggregator reports the coordinates the window touched and they are at
// most half the vector, the edge forwards exactly those, with the values a
// dense forward carries there, and a root under the mean window applies and
// diffs the window at them instead of over the whole model. The root's
// model is the same bit for bit as under a dense forward, whatever its
// pipeline (TestRootSeesTheSameTreeSparseOrDense). Any other window (a dense
// leaf, a dp stage, a robust aggregator) forwards dense. On the
// tree-stream-sparse benchmark (bench/perf, 2 vCPUs) this took a window's
// forward from 94.5 KB to at most 5.9 KB and push_p90_us from 235 to 142 µs.
//
// Model distribution runs the other way: the edge caches the upstream
// model as an immutable snapshot, refreshes it from the upstream's stream
// announces (AbsorbUpstreamAnnounce) or, where none chains onto the cache,
// by delta pull, and relays every refresh downstream as a {version, epoch,
// sparse-delta} announce (OnAnnounce), composing multi-step jumps into one
// exact v→v+k patch. An upstream announces the version a forwarded window
// minted before it acks the forward, and the edge applies that announce as
// it arrives — the forward holds only the upstream lock, never the publish
// lock — so by the ack the cache is usually current, and the forward pulls
// only if the ack is still ahead of the cache or the cache is flagged. The
// pull is the repair path: an ack that overtook its announce, an HTTP
// upstream (which announces nothing), an epoch change. Its delta answer
// goes through the announce's rule (AbsorbUpstreamAnnounce): a delta at or
// behind the cache, or from a base the cache has left, is skipped, one that
// chains onto it is applied, anything else flags the cache for the next
// forward's pull. A refresh by delta relays the upstream's delta itself: it
// names the coordinates whose bits changed since the cached version, so it
// is exactly the step the patched cache took, and the edge publishes it
// without recording a step of its own. An announce's delta is the upstream's step from the version before,
// which is what a delta pull from that version returns too, so the cache,
// the history and the relay are the same bits whichever way the refresh
// came.
//
// Epoch conflicts cascade through the tier instead of value-poisoning
// edge caches: a root restart (a new incarnation epoch) makes the edge's
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
	"fleet/internal/ingest"
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
	// the mean window. Stateful: one per node.
	Pipeline *pipeline.Pipeline
	// Admission, when non-nil, is the local task-admission chain — edge
	// nodes make admission decisions without a round trip to the root.
	// Nil admits everything at DefaultBatchSize.
	Admission sched.AdmissionPolicy
	// DefaultBatchSize seeds the admission chain (default 100).
	DefaultBatchSize int
	// DeltaHistory is how many recent upstream versions the edge keeps as
	// bases of exact sparse deltas, to serve version-aware leaf pulls and
	// relay announces (server.Config.DeltaHistory has the cost model).
	// Default 4; negative disables.
	DeltaHistory int
	// ID is the worker ID this edge identifies as upstream.
	ID int
}

// windowPush is one window on its way upstream: the metadata of the pushes
// folded into it and, once drained, their summed direction.
type windowPush struct {
	fwd          forward
	contributing int
	batch        int
	labels       []int
}

// forward is a drained window's summed direction in the storage it travels
// upstream in, recycled from one window to the next (Node.spare): dense in
// sum, or, when sparse, in sp at ascending coordinates.
type forward struct {
	sparse bool
	sum    []float64
	sp     compress.Sparse
}

// fill stores a drained direction. A window that touched at most half the
// vector (compress.History's density rule for a delta) is stored sparse, at
// its touched coordinates — the list is the aggregator's scratch, so it is
// copied — and any other dense. Every value is +0 + dir[c]: the bits a sum
// into a zeroed buffer holds, −0 included, on both paths.
func (f *forward) fill(dir []float64, touched []int32) {
	f.sparse = len(touched) > 0 && len(touched) <= len(dir)/2
	if f.sparse {
		f.sp.Len = len(dir)
		f.sp.Indices = append(f.sp.Indices[:0], touched...)
		f.sp.Values = f.sp.Values[:0]
		for _, c := range touched {
			f.sp.Values = append(f.sp.Values, 0+dir[c])
		}
		return
	}
	if cap(f.sum) < len(dir) {
		f.sum = make([]float64, len(dir))
	}
	f.sum = f.sum[:len(dir)]
	for i, v := range dir {
		f.sum[i] = 0 + v
	}
}

// Node is one edge aggregator. All exported methods are safe for
// concurrent use.
type Node struct {
	cfg Config
	// core is the learning-task path (admission, pipeline, K-window,
	// counters) and holds the cached upstream model as its snapshot, nil
	// until the first sync; the node is its window sink (edgeSink).
	core *ingest.Core[*windowPush]

	// win is the open window's metadata beside the aggregator's mass, nil
	// while the window is empty; guarded by the core's commit lock
	// (edgeSink.Fold, edgeSink.CloseWindow).
	win *windowPush

	// upMu serializes the upstream exchanges: Sync, the window forward and
	// its repair pull. Lock order commit lock → (unlock) → upMu: the window
	// drain captures under the commit lock and forwards after release.
	upMu sync.Mutex
	// pubMu serializes snapshot publication. It is never held across an
	// upstream call, so an announce is applied as it arrives, even from
	// inside the forward's own in-process upstream push.
	pubMu sync.Mutex

	// relayHook observes every snapshot refresh as a downstream announce
	// (OnAnnounce); the stream transport broadcasts from it.
	relayHook atomic.Pointer[func(protocol.ModelAnnounce)]

	// needRefresh marks the cache behind upstream (an announce or pulled
	// delta from another epoch, or one that does not chain onto the cache);
	// the next window forward repairs it by pull.
	needRefresh atomic.Bool

	// spare is forward storage the upstream is done with (forwardWindow),
	// the next window's to fill (CloseWindow); nil when none is.
	spare atomic.Pointer[forward]

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
	n := &Node{cfg: cfg}
	var err error
	n.core, err = ingest.New(ingest.Config{
		Name:             "aggtree",
		ParamCount:       cfg.Arch.Build(simrand.New(0)).ParamCount(),
		Classes:          cfg.Arch.Classes(),
		Algorithm:        cfg.Algorithm,
		K:                cfg.K,
		Pipeline:         cfg.Pipeline,
		Admission:        cfg.Admission,
		DefaultBatchSize: cfg.DefaultBatchSize,
		DeltaHistory:     cfg.DeltaHistory,
	}, (*edgeSink)(n))
	if err != nil {
		return nil, err
	}
	return n, nil
}

// Sync pulls the upstream model now (full), so a booting edge can refuse to
// serve instead of failing its first leaf. Idempotent once synced.
func (n *Node) Sync(ctx context.Context) error {
	n.upMu.Lock()
	defer n.upMu.Unlock()
	if n.core.Snapshot() != nil {
		return nil
	}
	return n.pullLocked(ctx, false)
}

// RequestTask implements service.Service for leaf workers: the local
// admission chain decides, and the model is served from the edge's cached
// upstream snapshot (ingest.Core.RequestTask).
func (n *Node) RequestTask(ctx context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	return n.core.RequestTask(ctx, req)
}

// PushGradient implements service.Service for leaf workers: the gradient
// runs the local pipeline against the edge's cached clock into the window
// aggregator (ingest.Core.PushGradient); every K-th accepted push drains
// the window and forwards the single summed direction upstream, weighted
// by the count of contributing leaf gradients.
//
// The leaf's ack never depends on the upstream exchange: by the time the
// window forwards, this gradient is committed locally — an upstream
// failure discards the window (counted, like a drain error) rather than
// inviting a leaf retry that would double-contribute.
func (n *Node) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	return n.core.PushGradient(ctx, push)
}

// edgeSink is the node as the ingest core's window sink.
type edgeSink Node

// Sync is the lazy first upstream pull.
func (k *edgeSink) Sync(ctx context.Context) error { return (*Node)(k).Sync(ctx) }

// Fold accumulates the open window's upstream-push metadata. A push from a
// stacked sub-tier already aggregates Contributing leaf gradients; its
// weight is counted.
func (k *edgeSink) Fold(push *protocol.GradientPush, contrib int) {
	n := (*Node)(k)
	w := n.win
	if w == nil {
		w = &windowPush{labels: make([]int, n.cfg.Arch.Classes())}
		n.win = w
	}
	w.contributing += contrib
	w.batch += push.BatchSize
	for i, c := range push.LabelCounts {
		w.labels[i] += c
	}
}

// CloseWindow drains the local aggregator into one summed direction, in the
// storage the previous forward returned when there is one, and hands the
// window over for the upstream push. A drain failure (a window the rule
// rejects) discards it — the leaves were acked, so there is no addressee.
func (k *edgeSink) CloseWindow(ingest.Tally) (*windowPush, error) {
	n := (*Node)(k)
	up := n.win
	n.win = nil
	if spare := n.spare.Swap(nil); spare != nil {
		up.fwd = *spare
	}
	drained := false
	err := n.core.Config().Pipeline.DrainTouched(func(dir []float64, touched []int32) {
		drained = true
		up.fwd.fill(dir, touched)
	})
	if err != nil {
		n.spare.Store(&up.fwd)
		return nil, err
	}
	if !drained {
		// A concurrent drain took this window's mass along: forward zeros.
		up.fwd.fill(make([]float64, n.core.Config().ParamCount), nil)
	}
	return up, nil
}

// Deliver forwards the window this push closed, if it closed one; the ack
// that follows reports the edge's clock after the forward refreshed it.
func (k *edgeSink) Deliver(ctx context.Context, up *windowPush, committed int) int {
	if up == nil {
		return committed
	}
	n := (*Node)(k)
	n.forwardWindow(ctx, up)
	return n.core.Snapshot().Version
}

// forwardWindow pushes one drained window direction upstream — a sparse
// window as a lossless top-k push — and pulls a delta if the ack is still
// ahead of the cache or the cache is flagged: the announces the push minted
// were applied as they arrived. An upstream version_conflict is the epoch
// cascade's first domino: the window is lost (its leaves were acked — the
// same invariant as a drain error), the edge re-pulls full onto the new
// incarnation, and subsequent leaf pushes conflict locally until the leaves
// resync too. The upstream only borrows the forward's arrays (see
// service.Service.PushGradient): once the push has returned, landed or lost,
// they are the next window's.
func (n *Node) forwardWindow(ctx context.Context, w *windowPush) {
	n.upMu.Lock()
	defer n.upMu.Unlock()
	cur := n.core.Snapshot()
	push := &protocol.GradientPush{
		WorkerID:     n.cfg.ID,
		DeviceModel:  "aggtree-edge",
		ModelVersion: cur.Version,
		ModelEpoch:   cur.Epoch,
		BatchSize:    w.batch,
		LabelCounts:  w.labels,
		Contributing: w.contributing,
	}
	if w.fwd.sparse {
		push.SetForm(compress.Form{Encoding: compress.EncodingTopK, Sparse: &w.fwd.sp})
	} else {
		push.Gradient = w.fwd.sum
	}
	ack, err := n.cfg.Upstream.PushGradient(ctx, push)
	n.spare.Store(&w.fwd)
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
	if n.needRefresh.Swap(false) || ack.NewVersion > n.core.Snapshot().Version {
		if n.pullLocked(ctx, true) != nil {
			n.needRefresh.Store(true)
		}
	}
}

// Flush drains a partial local window upstream — the shutdown path, so a
// terminating edge does not strand acked leaf gradients. No-op when the
// window is empty. It fails when a window was lost upstream while it ran:
// once leaf traffic has stopped, the one it flushed.
func (n *Node) Flush(ctx context.Context) error {
	lost := n.lostWindows.Load()
	n.core.FlushWindow(ctx)
	if n.lostWindows.Load() != lost {
		return protocol.Errorf(protocol.CodeUnavailable, "aggtree: the flushed window was lost upstream")
	}
	return nil
}

// pullLocked performs one upstream model pull — delta-aware against the
// current snapshot when delta is true, full otherwise — and publishes the
// result: a delta through AbsorbUpstreamAnnounce, like an announce. Callers
// hold n.upMu.
func (n *Node) pullLocked(ctx context.Context, delta bool) error {
	cur := n.core.Snapshot()
	req := &protocol.TaskRequest{WorkerID: n.cfg.ID, DeviceModel: "aggtree-edge"}
	if delta && cur != nil {
		req.WantDelta = true
		req.KnownVersion = cur.Version
		req.KnownEpoch = cur.Epoch
	}
	resp, err := n.cfg.Upstream.RequestTask(service.Keeping(ctx), req) // cached here: not the leaf's lease's to release
	if err != nil {
		return protocol.AsError(err)
	}
	if !resp.Accepted {
		return protocol.Errorf(protocol.CodeUnavailable,
			"aggtree: upstream declined model pull: %s", resp.Reason)
	}
	if resp.ParamsDelta != nil {
		n.AbsorbUpstreamAnnounce(protocol.ModelAnnounce{ModelVersion: resp.ModelVersion, ServerEpoch: resp.ServerEpoch,
			DeltaBase: resp.DeltaBase, Delta: resp.ParamsDelta})
		return nil
	}
	if len(resp.Params) != n.core.Config().ParamCount {
		return protocol.Errorf(protocol.CodeInternal,
			"aggtree: upstream served %d params, architecture needs %d", len(resp.Params), n.core.Config().ParamCount)
	}
	// In-process upstreams hand out their snapshot's own storage, which
	// escapes there; the edge never mutates it either, so sharing is safe
	// (and what keeps the tree's pull path O(1) in the model size).
	n.pubMu.Lock()
	defer n.pubMu.Unlock()
	return n.publishLocked(resp.ModelVersion, resp.ServerEpoch, resp.Params, nil)
}

// publishLocked installs a new cached snapshot — the upstream's full params
// (shared with whoever served them), or the cache patched with the delta
// that chains onto it, in the core's next recycled buffer — advances the
// delta history, and relays the refresh downstream as an announce. A
// same-epoch version at or behind the cache is skipped, so a full pull
// never publishes over a newer announce. A delta is its own step: an
// upstream publishes the coordinates whose bits changed since the cache's
// version, so patched onto the cache it moves exactly those, and the
// history keeps it (immutable, like every delta the upstream served) as the
// edge's published delta. Callers hold n.pubMu. An epoch change resets the
// history — old params are meaningless as delta bases across incarnations —
// and relays a delta-less announce, which subscribed leaves ignore until
// their next push conflicts.
func (n *Node) publishLocked(version int, epoch int64, params []float64, delta *compress.Sparse) error {
	old := n.core.Snapshot()
	if old != nil && old.Epoch == epoch && version <= old.Version {
		return nil
	}
	var next *ingest.Snapshot
	switch {
	case delta != nil:
		patched, err := n.core.Patched(delta)
		if err != nil {
			return protocol.AsError(err)
		}
		next = n.core.Advance(version, patched, delta)
	case old != nil && old.Epoch == epoch:
		next = n.core.AdvanceShared(version, params)
	default:
		next = n.core.Boot(version, epoch, params)
	}

	if fn := n.relayHook.Load(); fn != nil {
		base := version // nothing to patch from before the first sync
		if old != nil {
			base = old.Version
		}
		(*fn)(next.Announce(base))
	}
	return nil
}

// AbsorbUpstreamAnnounce applies one upstream delta to the cached snapshot
// and reports whether it did: only a delta chaining exactly onto the cache
// applies. One at or behind the cache is skipped, and so is one from a base
// the cache has since left (a pulled delta an announce overtook): the step
// that moved the cache is followed by the next announce, which flags the
// cache if it does not chain, and the next forward pulls if its ack is still
// ahead. Anything else — epoch change, chain gap, delta-less drain — flags
// the cache for repair. It is the streaming-transport
// wiring — subscribe the edge's upstream stream.Client with this as
// OnAnnounce, and the refresh (plus the downstream relay) happens without a
// pull round trip — and the delta pull's too. It is strictly RPC-free and
// applies the announce at once, also while an upstream exchange is in
// flight (possibly on this very goroutine: an in-process upstream runs its
// announce hook inside the push that drained).
func (n *Node) AbsorbUpstreamAnnounce(ann protocol.ModelAnnounce) bool {
	n.pubMu.Lock()
	defer n.pubMu.Unlock()
	cur := n.core.Snapshot()
	switch {
	case cur == nil:
		return false // not synced yet; the lazy first pull fetches current
	case ann.ServerEpoch == cur.Epoch && (ann.ModelVersion <= cur.Version ||
		ann.Delta != nil && ann.DeltaBase < cur.Version):
		return false // stale, duplicate, or from a base the cache has left
	case ann.Follows(cur.Version, cur.Epoch) &&
		n.publishLocked(ann.ModelVersion, ann.ServerEpoch, nil, ann.Delta) == nil:
		return true
	}
	n.needRefresh.Store(true)
	return false
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
	if s := n.core.Snapshot(); s != nil {
		return s.Version, s.Epoch
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
// LeafGradients the individual worker gradients they represent; DrainErrors
// includes the windows lost upstream.
func (n *Node) Stats(ctx context.Context) (*protocol.Stats, error) {
	st, err := n.core.Stats(ctx)
	if err != nil {
		return nil, err
	}
	st.DrainErrors += int(n.lostWindows.Load())
	return st, nil
}
