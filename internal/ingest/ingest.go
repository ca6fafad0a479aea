// Package ingest is FLeet's Figure-2 server loop, written once: task
// admission (I-Prof batch sizing and the similarity controller, as an
// internal/sched chain), AdaSGD staleness scaling and the update pipeline
// (internal/pipeline), and the K-window that closes after K accepted
// gradients. The parameter server and the edge aggregator both own a Core;
// they differ only in what a full window does — apply it to the model, or
// forward it upstream — and that difference is the Sink each supplies.
//
// The order of operations in RequestTask and PushGradient is the behavioural
// contract the seed-42 scenario baselines replay against. Instrument, limit
// or validate the learning-task path here, once.
package ingest

import (
	"context"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"fleet/internal/compress"
	"fleet/internal/iprof"
	"fleet/internal/learning"
	"fleet/internal/pipeline"
	"fleet/internal/protocol"
	"fleet/internal/sched"
	"fleet/internal/service"
)

// Snapshot is one published state of the model a node serves, in the root's
// (version, epoch) clock — an edge is transparent: leaves cache exactly the
// coordinates the root minted, so epoch conflicts propagate without
// translation. Its parameter storage is reached through a Lease only: the
// core writes it again, as a later snapshot, once it has left the history and
// every snapshot whose deltas name it is superseded with no reader counted in
// — unless it escaped (an in-process pull; storage shared at Boot or after).
type Snapshot struct {
	Version int
	Epoch   int64
	params  []float64
	deltas  compress.Deltas
	readers atomic.Int32 // leases out
	escaped atomic.Bool  // params is held by someone who will not say when it is done
}

// Announce describes the refresh base → s to subscribers: the clock, and the
// exact delta when base is the snapshot s superseded and the history kept
// that step (one patch even where an edge's step spans several upstream
// versions — overwrite deltas compose by construction). The delta aliases no
// parameter storage: a transport may encode it while publication goes on.
func (s *Snapshot) Announce(base int) protocol.ModelAnnounce {
	ann := protocol.ModelAnnounce{ModelVersion: s.Version, ServerEpoch: s.Epoch}
	if d := s.deltas.Step(base); d != nil {
		ann.Delta, ann.DeltaBase = d, base
	}
	return ann
}

// Lease is one counted read of a snapshot (Core.Lease, Core.Cut): until
// Release, neither its parameters nor its retained delta bases' are written.
// It may be held across windows (a vectored write to a slow peer, a queued
// checkpoint); one never released costs a buffer's recycling, nothing else.
type Lease Snapshot

// Params returns the snapshot's parameters: read-only, until Release.
func (l *Lease) Params() []float64 { return l.params }

// Delta returns the exact sparse difference params(base) → Params for an
// older version the history still retains, when sparse enough to be worth
// the wire; nil means "serve a full pull". The previous version's was taken
// at publication; an older base's is composed by the first caller that names
// it — O(coordinates that moved since), once per base and snapshot, reading
// both vectors (hence the lease) — and shared. The delta outlives the lease.
func (l *Lease) Delta(base int) *compress.Sparse { return l.deltas.From(base) }

// Release counts the reader out. Once per lease.
func (l *Lease) Release() { l.readers.Add(-1) }

// keep ends the lease the other way: Params is the holder's for good, the
// garbage collector's after. Marked, then counted out: retire reads in the
// reverse order.
func (l *Lease) keep() { l.escaped.Store(true); l.Release() }

// Tally is the push accounting the core keeps under its commit lock.
// LeafGradients counts individual worker gradients: an aggregated push from
// an edge tier (GradientPush.Contributing > 0) adds its contributing count
// there but 1 to GradientsIn.
type Tally struct {
	GradientsIn   int
	LeafGradients int
	StaleSum      float64
}

// Sink is what a node does with the K-window the core fills. W is whatever
// a closed window hands from the commit lock to the code that runs after it
// (the root's snapshot to announce and checkpoint, the edge's drained
// direction); its zero value means "no window closed".
type Sink[W any] interface {
	// Sync publishes the node's first snapshot (Core.Boot). The core calls
	// it, before validating anything, only while none is published: the
	// edge's lazy first upstream pull; a root boots published.
	Sync(ctx context.Context) error
	// Fold runs under the commit lock for every committed push, before the
	// window trigger: metadata a sink carries beside the aggregator's mass.
	Fold(push *protocol.GradientPush, contributing int)
	// CloseWindow runs under the commit lock when the K-th push commits (or
	// on FlushWindow) and drains the pipeline's aggregator (lock order:
	// commit lock → aggregator); tally is the accounting as of this window.
	// An error is counted in Stats.DrainErrors and never reaches the pusher.
	CloseWindow(tally Tally) (W, error)
	// Deliver runs after the commit lock is released, on the goroutine of
	// the push that committed and strictly before its ack returns, with
	// what CloseWindow returned and the version published as the push left
	// the commit lock. It returns the ack's clock: that (the root), or the
	// cache's where delivering moves the model (the edge).
	Deliver(ctx context.Context, w W, committed int) int
}

// Config is the half of server.Config and aggtree.Config both share; the
// fields are documented there. Name prefixes error messages; ParamCount and
// Classes size request validation. Zero K, DefaultBatchSize and
// DeltaHistory take the defaults 1, 100 and 4 (a negative DeltaHistory
// disables delta pulls); a nil Pipeline is a staleness stage wrapping
// Algorithm in front of the mean window; a nil Admission admits everything
// at DefaultBatchSize.
type Config struct {
	Name             string
	ParamCount       int
	Classes          int
	Algorithm        learning.Algorithm
	K                int
	Pipeline         *pipeline.Pipeline
	Admission        sched.AdmissionPolicy
	TimeProfiler     *iprof.IProf
	EnergyProfiler   *iprof.IProf
	DefaultBatchSize int
	DeltaHistory     int
}

// Core is the shared learning-task path. All methods are safe for
// concurrent use, except that Boot, Advance, AdvanceShared, Buffer and
// Patched must be serialized by the sink (the root publishes under the
// commit lock, inside CloseWindow; the edge under its publish lock).
type Core[W any] struct {
	sink Sink[W]
	// cfg is immutable after New (defaults applied): request validation
	// reads it without holding any lock. Its pipeline's aggregator guards
	// its own window state, so Process/Add run outside mu; stateful
	// admission policies synchronize themselves.
	cfg Config
	// labels guards itself (lock-free reads); it is never touched under mu.
	labels *learning.LabelTracker

	// snap is the snapshot RequestTask serves from and PushGradient gates
	// against, both without locking; nil until the sink's first Boot.
	// history keeps the params behind the deltas it publishes.
	snap    atomic.Pointer[Snapshot]
	history *compress.History
	// free holds at most maxFree model-sized buffers nothing reads; retired at
	// most DeltaHistory + releaseSlack superseded snapshots, oldest first.
	free    [][]float64
	retired []*Snapshot

	// Task counters are atomic: the admission path must not contend with
	// the gradient-commit path. rejects is only touched on the (already
	// slow) reject path.
	tasksServed  atomic.Int64
	tasksDropped atomic.Int64
	rejectMu     sync.Mutex
	rejects      map[string]int

	// mu is the commit lock: it guards the window count and the push
	// accounting, and serializes the sink's Fold and CloseWindow.
	mu          sync.Mutex
	pending     int
	tally       Tally
	drainErrors int
}

// New builds a core over sink, applying the defaults root and edge share.
func New[W any](cfg Config, sink Sink[W]) (*Core[W], error) {
	if cfg.Algorithm == nil {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument, "%s: Algorithm is required", cfg.Name)
	}
	cfg.K = max(cfg.K, 1)
	if cfg.DefaultBatchSize <= 0 {
		cfg.DefaultBatchSize = 100
	}
	if cfg.DeltaHistory == 0 {
		cfg.DeltaHistory = 4
	}
	// Negative disables; compress.History keeps nothing at depth <= 0.
	if cfg.Pipeline == nil {
		stage, err := pipeline.NewStalenessScale(cfg.Algorithm)
		if err != nil {
			return nil, protocol.AsError(err)
		}
		cfg.Pipeline, err = pipeline.New(pipeline.NewMeanWindow(), stage)
		if err != nil {
			return nil, protocol.AsError(err)
		}
	}
	if cfg.Admission == nil {
		cfg.Admission = sched.NewChain()
	}
	return &Core[W]{
		sink:    sink,
		cfg:     cfg,
		labels:  learning.NewLabelTracker(cfg.Classes),
		history: compress.NewHistory(cfg.DeltaHistory),
		rejects: map[string]int{},
	}, nil
}

// Config returns the configuration with its defaults applied: the composed
// update pipeline and admission chain among them.
func (c *Core[W]) Config() Config { return c.cfg }

// Labels returns the LD_global tracker (checkpoint capture and restore).
func (c *Core[W]) Labels() *learning.LabelTracker { return c.labels }

// Snapshot returns the published snapshot, nil before the first Boot.
func (c *Core[W]) Snapshot() *Snapshot { return c.snap.Load() }

// Lease counts a reader into the published snapshot, before confirming it
// is current: a publisher superseding it in between either sees the count or
// is seen by the re-check, so a superseded snapshot found unread stays so.
func (c *Core[W]) Lease() *Lease {
	for {
		s := c.snap.Load()
		s.readers.Add(1)
		if c.snap.Load() == s {
			return (*Lease)(s)
		}
		s.readers.Add(-1)
	}
}

// Boot publishes the first snapshot of a line — boot, a checkpoint restore,
// an incarnation change — with an empty delta history: params from before
// the cut are meaningless as delta bases after it. params stays the caller's
// to share (an edge boots on its upstream's) and is never recycled, nor is
// what the old line retained.
func (c *Core[W]) Boot(version int, epoch int64, params []float64) *Snapshot {
	c.history.Reset(version, params)
	c.retired = nil
	next := &Snapshot{Version: version, Epoch: epoch, params: params}
	next.escaped.Store(true)
	c.snap.Store(next)
	return next
}

// Advance publishes the next snapshot of the current line and epoch, with
// the exact delta from the previous one and the means to compose the delta
// from every older retained version (Lease.Delta). params becomes the core's,
// written again once provably unread: nobody else may hold it. step is
// compress.History.Advance's: the exact step from the previous snapshot that
// the write which made params recorded (a sparse window's apply, or the
// upstream delta Patched applied), kept as the published delta; nil makes
// the history diff the two snapshots.
func (c *Core[W]) Advance(version int, params []float64, step *compress.Sparse) *Snapshot {
	old := c.snap.Load()
	next := &Snapshot{Version: version, Epoch: old.Epoch, params: params}
	next.deltas = c.history.Advance(version, params, step)
	c.snap.Store(next)
	c.retire(old)
	return next
}

// AdvanceShared is Advance for params the caller shares with someone else
// (an in-process upstream's snapshot storage): never recycled.
func (c *Core[W]) AdvanceShared(version int, params []float64) *Snapshot {
	next := c.Advance(version, params, nil)
	next.escaped.Store(true) // long before the serialized publisher retires it
	return next
}

const (
	releaseSlack = 2 // superseded snapshots past the history depth that may await release; beyond, the oldest is the garbage collector's
	maxFree      = 2 // free buffers kept: the one the next window fills and a spare
)

// retire queues the snapshot just superseded and recycles what is provably
// unread. The oldest queued has left the history once more than depth are
// queued; its storage is named by its own deltas and those of the depth
// snapshots after it — all queued, so superseded: no reader can still count
// itself in, and when none is counted in, none reads. Counts are read before
// the escape mark, the reverse of Lease.keep's writes: a reader seen counted
// out has its mark seen too.
func (c *Core[W]) retire(old *Snapshot) {
	depth := max(c.cfg.DeltaHistory, 0)
	c.retired = append(c.retired, old)
	for len(c.retired) > depth {
		read := slices.ContainsFunc(c.retired[:depth+1], func(s *Snapshot) bool { return s.readers.Load() != 0 })
		if read && len(c.retired) <= depth+releaseSlack {
			return // a reader is still counted in: look again next window
		}
		if head := c.retired[0]; !read && !head.escaped.Load() && len(c.free) < maxFree {
			c.free = append(c.free, head.params)
		}
		c.retired = append(c.retired[:0], c.retired[1:]...)
	}
}

// Buffer returns a recycled model-sized vector, contents stale, to overwrite
// and hand to Advance; nil when none is free (append then allocates, unzeroed).
func (c *Core[W]) Buffer() (buf []float64) {
	if n := len(c.free); n > 0 {
		buf, c.free = c.free[n-1], c.free[:n-1]
	}
	return buf
}

// Patched returns the published parameters patched with d, in Buffer's
// storage: an edge's next snapshot, for the Advance that follows, whose
// step d itself is (Patch refuses a d that is not strictly ascending).
func (c *Core[W]) Patched(d *compress.Sparse) ([]float64, error) {
	buf := append(c.Buffer()[:0], c.snap.Load().params...)
	if err := d.Patch(buf); err != nil {
		c.free = append(c.free, buf) // nothing is published from it
		return nil, err
	}
	return buf, nil
}

// RequestTask processes step (1)→(4) of Figure 2: screen the task through
// the admission chain (I-Prof batch sizing, the controller) and serve the
// model. The accept path never takes the commit lock and copies nothing:
// it counts itself into the published snapshot (Lease) and answers with one
// of its deltas (version-aware pull; O(1) from the previous version, composed
// once per base and snapshot from an older retained one: Lease.Delta) or its
// parameter storage (full pull). A delta aliases nothing; the count ends with
// the call. A full pull's Params is the snapshot's own storage: under a
// service.Lease (a wire endpoint) the count passes to the lease and Params
// is the caller's to read until it releases; under any other context (every
// in-process caller) the snapshot escapes and Params is the caller's for as
// long as it likes. The only synchronization besides is the label tracker's
// lock-free snapshot read and whatever stateful admission policies do.
func (c *Core[W]) RequestTask(ctx context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	if err := c.begin(ctx); err != nil {
		return nil, err
	}
	if err := protocol.ValidateLabelCounts("TaskRequest.label_counts", req.LabelCounts, c.cfg.Classes); err != nil {
		return nil, err
	}

	areq := &sched.TaskRequest{
		Wire:       req,
		BatchSize:  c.cfg.DefaultBatchSize,
		Similarity: c.labels.Similarity(req.LabelCounts),
	}
	decision, err := c.cfg.Admission.Admit(ctx, areq)
	if err != nil {
		return nil, protocol.AsError(err)
	}

	// Re-check before committing controller state: the profiler lookups
	// and similarity scan above may have outlived the caller's deadline.
	if err := ctx.Err(); err != nil {
		return nil, protocol.AsError(err)
	}

	if !decision.Accept {
		c.tasksDropped.Add(1)
		c.rejectMu.Lock()
		c.rejects[decision.Policy]++
		c.rejectMu.Unlock()
		return &protocol.TaskResponse{Accepted: false, Reason: decision.Reason}, nil
	}

	c.tasksServed.Add(1)
	held := c.Lease()
	resp := &protocol.TaskResponse{
		Accepted:     true,
		ModelVersion: held.Version,
		BatchSize:    decision.BatchSize,
		ServerEpoch:  held.Epoch,
	}
	// A delta is only meaningful against this incarnation's own version
	// stream: after a restore, a client's cached "version 33" names the
	// dead instance's parameters, not ours — patching our delta onto it
	// would silently corrupt the cache. Epoch mismatch → full pull.
	if req.WantDelta && req.KnownEpoch == held.Epoch {
		d := &compress.Sparse{Len: len(held.params)} // already current: the empty delta
		if req.KnownVersion != held.Version {
			d = held.Delta(req.KnownVersion)
		}
		if d != nil {
			held.Release()
			resp.ParamsDelta, resp.DeltaBase = d, req.KnownVersion
			return resp, nil
		}
		// Version too old, from the future, or the delta went dense:
		// transparent fallback to a full pull.
	}
	resp.Params = held.params
	if l := service.LeaseFrom(ctx); l != nil {
		l.Hold(held)
	} else {
		held.keep()
	}
	return resp, nil
}

// begin is the head of every learning-task call: honour a context that is
// already done, then make sure a snapshot is published.
func (c *Core[W]) begin(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return protocol.AsError(err)
	}
	if c.snap.Load() == nil {
		return c.sink.Sync(ctx)
	}
	return nil
}

// PushGradient processes step (5): the gradient runs through the update
// pipeline's stages (staleness scaling, DP, filters), lands in the window
// aggregator, and the K-th accepted push closes the window into the sink;
// the measured cost feeds back into I-Prof. A top-k push enters the
// pipeline sparse, as its values, indices and dense length, and stays so
// until a stage or the aggregator densifies it (pipeline.Gradient).
func (c *Core[W]) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	if err := c.begin(ctx); err != nil {
		return nil, err
	}
	// Validation and sparse decoding touch only the immutable paramCount,
	// so they run outside every lock. The shared payload decoder handles
	// every uplink dialect — dense, top-k, and the quantized top-k forms —
	// and hands a sparse one over with strictly ascending indices, the
	// form the pipeline takes it in.
	payload, err := protocol.DecodeGradientPayload(push, c.cfg.ParamCount)
	if err != nil {
		return nil, err
	}
	if push.BatchSize <= 0 {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument,
			"%s: non-positive batch size %d", c.cfg.Name, push.BatchSize)
	}
	if err := protocol.ValidateLabelCounts("GradientPush.label_counts", push.LabelCounts, c.cfg.Classes); err != nil {
		return nil, err
	}

	// Feed I-Prof outside the commit lock.
	observe(c.cfg.TimeProfiler, push, push.TimeFeatures, push.CompTimeSec)
	observe(c.cfg.EnergyProfiler, push, push.EnergyFeatures, push.EnergyPct)

	sim := c.labels.Similarity(push.LabelCounts)

	// Last abort point: past here the gradient is counted and accumulated,
	// which must complete even if the deadline lapses mid-flight. Checking
	// again after the O(params) decode and the profiler feeds lets a
	// Deadline interceptor actually fire on in-process calls that queued
	// too long.
	if err := ctx.Err(); err != nil {
		return nil, protocol.AsError(err)
	}

	// A gradient from another incarnation was computed on parameters this
	// node cannot reason about (the same version number names different
	// params across a restore): version_conflict, the resync signal — the
	// worker drops its cache, re-pulls full and recomputes. At an edge this
	// gate is where a root restart cascades: once the edge resynced onto
	// the new incarnation, every leaf push still carrying the old epoch is
	// rejected exactly as the root would, one tier at a time.
	snap := c.snap.Load()
	if push.ModelEpoch != snap.Epoch {
		return nil, protocol.Errorf(protocol.CodeVersionConflict,
			"%s: gradient from server incarnation %d (serving incarnation %d); re-pull and recompute",
			c.cfg.Name, push.ModelEpoch, snap.Epoch)
	}

	// Staleness against the logical clock, read lock-free from the
	// published snapshot (a root advances clock and snapshot together under
	// the commit lock, so the snapshot's clock is never ahead).
	staleness := snap.Version - push.ModelVersion
	if staleness < 0 {
		return nil, protocol.Errorf(protocol.CodeVersionConflict,
			"%s: gradient from future model version %d (at %d)", c.cfg.Name, push.ModelVersion, snap.Version)
	}

	// Pipeline stages: staleness scaling, DP perturbation, filters — the
	// O(params) work stays outside the commit lock. A stage rejection (e.g.
	// the norm filter) surfaces before the gradient is counted or
	// accumulated.
	//
	// A validated top-k view — strictly ascending, since the decoder
	// canonicalizes out-of-order and duplicate indices with densify's
	// last-value-wins semantics — travels the pipeline as-is. It stays
	// sparse until a stage or the aggregator needs every coordinate
	// (Gradient.Densify): under staleness → mean it scatters straight into
	// the window with no O(params) allocation per push.
	g := &pipeline.Gradient{
		Meta: learning.GradientMeta{
			Staleness:  staleness,
			Similarity: sim,
			BatchSize:  push.BatchSize,
			WorkerID:   push.WorkerID,
		},
		Scale: 1,
	}
	if payload.Sparse() {
		g.Vec, g.Indices, g.DenseLen = payload.Values, payload.Indices, c.cfg.ParamCount
	} else {
		g.Vec = payload.Dense
	}
	if err := c.cfg.Pipeline.Process(g); err != nil {
		return nil, err
	}

	// The algorithm observes the staleness after scaling (a gradient's own
	// staleness enters the quantile history only after its scale is fixed),
	// and LD_global accumulates label mass weighted by the pure staleness
	// dampening, so labels the model never effectively incorporated keep
	// their novelty (and keep being boosted).
	c.cfg.Algorithm.Observe(g.Meta)
	absorb := c.cfg.Algorithm.AbsorbWeight(g.Meta)
	c.labels.RecordWeighted(push.LabelCounts, absorb)

	// Window accumulation: the aggregator synchronizes itself (its window
	// lock), so the pipeline stages of concurrent pushes stay parallel.
	c.cfg.Pipeline.Add(g)

	// Commit section: a push only counts toward the K-window after its
	// mass reaches the aggregator, so when pending hits K every counted
	// gradient is already in the window and closing it can never strand
	// acked mass.
	//
	// A close failure does NOT fail the push: this gradient was already
	// counted and accumulated, so returning an error would invite a retry
	// that double-contributes. The window is discarded, the failure is
	// surfaced through Stats.DrainErrors, and the pusher gets its ack.
	// Leaf-gradient accounting: an edge-aggregator push carries the count
	// of worker gradients its direction sums, so the K-sum bookkeeping
	// (and the O(fan-in) push reduction it proves) stays visible here.
	contrib := push.Contributing
	if contrib <= 0 {
		contrib = 1
	}
	var closed W
	c.mu.Lock()
	c.tally.GradientsIn++
	c.tally.LeafGradients += contrib
	c.tally.StaleSum += float64(staleness)
	c.sink.Fold(push, contrib)
	c.pending++
	if c.pending >= c.cfg.K {
		closed = c.closeLocked()
	}
	committed := c.snap.Load().Version // under the lock: what this push's own window minted, if any
	c.mu.Unlock()
	return &protocol.PushAck{
		Applied:    true,
		Staleness:  staleness,
		Scale:      g.Scale,
		NewVersion: c.sink.Deliver(ctx, closed, committed),
	}, nil
}

// observe feeds one measured task cost, per sample, back into a profiler.
func observe(prof *iprof.IProf, push *protocol.GradientPush, features []float64, cost float64) {
	if prof != nil && cost > 0 && len(features) > 0 {
		prof.Observe(iprof.Observation{
			DeviceModel: push.DeviceModel,
			Features:    features,
			Alpha:       cost / float64(push.BatchSize),
		})
	}
}

// closeLocked closes the window into the sink. Callers hold mu.
func (c *Core[W]) closeLocked() W {
	c.pending = 0
	w, err := c.sink.CloseWindow(c.tally)
	if err != nil {
		c.drainErrors++
	}
	return w
}

// FlushWindow closes a partial window into the sink — the shutdown path of
// a node that must not strand acked gradients. No-op on an empty window.
func (c *Core[W]) FlushWindow(ctx context.Context) {
	var closed W
	c.mu.Lock()
	if c.pending > 0 {
		closed = c.closeLocked()
	}
	c.mu.Unlock()
	c.sink.Deliver(ctx, closed, 0) // no ack to report a clock in
}

// Cut returns a lease on the published snapshot and the push accounting as
// of one instant under the commit lock — a checkpoint's consistent cut.
func (c *Core[W]) Cut() (*Lease, Tally) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Lease(), c.tally
}

// TaskCounts returns the admission counters (served, dropped).
func (c *Core[W]) TaskCounts() (served, dropped int64) {
	return c.tasksServed.Load(), c.tasksDropped.Load()
}

// Restore reinstates counters from a checkpoint, before serving starts.
func (c *Core[W]) Restore(tally Tally, served, dropped int64) {
	c.mu.Lock()
	c.tally = tally
	c.mu.Unlock()
	c.tasksServed.Store(served)
	c.tasksDropped.Store(dropped)
}

// Stats returns the diagnostics every node reports: the model clock, the
// composed update pipeline (stage names in chain order plus the window
// aggregator), the composed admission chain with its per-policy reject
// counters, and the push accounting. Sinks add their own fields.
func (c *Core[W]) Stats(ctx context.Context) (*protocol.Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, protocol.AsError(err)
	}
	served, dropped := c.TaskCounts()
	c.rejectMu.Lock()
	var rejects map[string]int
	if len(c.rejects) > 0 {
		rejects = maps.Clone(c.rejects)
	}
	c.rejectMu.Unlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	st := &protocol.Stats{
		TasksServed:       int(served),
		TasksDropped:      int(dropped),
		GradientsIn:       c.tally.GradientsIn,
		LeafGradients:     c.tally.LeafGradients,
		PipelineStages:    c.cfg.Pipeline.StageNames(),
		Aggregator:        c.cfg.Pipeline.AggregatorName(),
		AdmissionPolicies: sched.Names(c.cfg.Admission),
		RejectsByPolicy:   rejects,
		DrainErrors:       c.drainErrors,
	}
	if c.tally.GradientsIn > 0 {
		st.MeanStaleness = c.tally.StaleSum / float64(c.tally.GradientsIn)
	}
	if snap := c.snap.Load(); snap != nil {
		st.ModelVersion, st.ServerEpoch = snap.Version, snap.Epoch
	}
	return st, nil
}
