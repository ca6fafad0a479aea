// Package server implements FLeet's parameter server: the web application
// hosting the global model, I-Prof, AdaSGD and the controller (Figure 2).
// *Server implements service.Service, so interceptors (logging, metrics,
// rate limiting, deadlines — see internal/service) compose around it, and
// NewHandler exposes any Service over the versioned HTTP wire protocol:
//
//	POST /v1/task     — step (1): request a learning task
//	POST /v1/gradient — step (5): push a computed gradient
//	GET  /v1/stats    — diagnostics
//
// plus the legacy unversioned /task, /gradient and /stats routes for
// pre-v1 clients. v1 payloads are Content-Type negotiated between gob+gzip
// and JSON (see internal/protocol).
//
// The two halves of the protocol scale independently:
//
//   - Uplink (PushGradient): every accepted gradient travels the update
//     pipeline (internal/pipeline) — staleness scaling, optional DP
//     perturbation, norm filtering — into a window aggregator that folds
//     each K-window into the model under the server mutex.
//   - Downlink (RequestTask): admission runs through a pluggable policy
//     chain (internal/sched) — I-Prof batch sizing, the similarity
//     controller, quotas — and the model is served from an immutable
//     snapshot behind an atomic pointer, refreshed only at window drain.
//     The accept path takes no lock and does no O(params) work: full pulls
//     hand out the shared snapshot slice, and version-aware pulls hand out
//     deltas precomputed at drain time.
package server

import (
	"context"
	"sync"
	"sync/atomic"

	"fleet/internal/compress"
	"fleet/internal/iprof"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/persist"
	"fleet/internal/pipeline"
	"fleet/internal/protocol"
	"fleet/internal/sched"
	"fleet/internal/simrand"
)

// Config parameterizes a FLeet server.
type Config struct {
	// Arch is the global model architecture.
	Arch nn.Arch
	// Algorithm is the aggregation rule (typically AdaSGD). The server
	// always uses it for label absorption and staleness observation; the
	// default pipeline also wraps it in a staleness-scaling stage.
	Algorithm learning.Algorithm
	// LearningRate is γ of Equation 3.
	LearningRate float64
	// K is the number of gradients aggregated per model update (default 1).
	K int
	// Shards stripes the default mean aggregator across this many
	// independently locked accumulator buffers (default 1: the classic
	// single accumulator). With Shards > 1, concurrent PushGradient calls
	// landing on different shards run their O(params) accumulation in
	// parallel and only serialize on the short metadata section. Ignored
	// when Pipeline is set (the pipeline's aggregator decides).
	Shards int
	// Pipeline, when non-nil, replaces the server's update pipeline: the
	// chain of per-gradient stages and the window aggregator every pushed
	// gradient travels (see internal/pipeline). When nil the server builds
	// the legacy-equivalent default — a staleness-scaling stage wrapping
	// Algorithm in front of a sharded mean window with Shards stripes.
	// A pipeline is stateful (its aggregator holds window/shard buffers):
	// build one per server, never share an instance between servers.
	// Build one directly (pipeline.New) or from string specs
	// (pipeline.Build), e.g.
	//
	//	pipeline.Build("staleness,norm-filter(100)", "krum(1)",
	//	    pipeline.BuildOptions{Algorithm: algo, Seed: seed})
	Pipeline *pipeline.Pipeline
	// Admission, when non-nil, replaces the task-admission chain: the
	// policy sequence every TaskRequest travels before the model is
	// served (see internal/sched). When nil the server builds the
	// legacy-equivalent default from the fields below — iprof-time,
	// iprof-energy, min-batch, similarity, each included only when its
	// knob is set. Policies may hold per-worker state (quotas): build one
	// chain per server. Build one directly (sched.NewChain) or from
	// string specs (sched.Build), e.g.
	//
	//	sched.Build("iprof-time(3),min-batch(5),similarity(0.9)",
	//	    sched.BuildOptions{TimeProfiler: prof})
	Admission sched.AdmissionPolicy
	// TimeSLOSec and EnergySLOPct are the provider's SLOs; the controller
	// sends each worker the largest batch meeting both (0 disables one).
	// Ignored when Admission is set (the chain's policies decide).
	TimeSLOSec   float64
	EnergySLOPct float64
	// TimeProfiler and EnergyProfiler are the I-Prof instances. A nil
	// profiler disables that bound and DefaultBatchSize is used instead.
	// PushGradient always feeds measured costs back into them, whether or
	// not an Admission chain uses them for batch sizing.
	TimeProfiler   *iprof.IProf
	EnergyProfiler *iprof.IProf
	// DefaultBatchSize is used when no profiler is configured (default 100,
	// the paper's mini-batch size).
	DefaultBatchSize int
	// MinBatchSize is the controller's size threshold: predicted batches
	// below it are rejected before any energy is spent (§2.2). Ignored
	// when Admission is set.
	MinBatchSize int
	// MaxSimilarity is the controller's similarity threshold: tasks whose
	// label similarity exceeds it are rejected as redundant. 0 disables.
	// Ignored when Admission is set.
	MaxSimilarity float64
	// F16Announce, when true, attaches a full half-precision parameter
	// vector (ModelAnnounce.ParamsF16) to snapshot announces whose exact
	// sparse delta went dense (or was never kept) — the dense-gradient
	// deployments that previously fell back to delta-less announces.
	// Subscribed workers overwrite their cache with the dequantized params
	// (bounded f16 rounding error, never accumulating: the next exact pull
	// or delta restores full precision per coordinate). Off by default —
	// announces are bit-exact unless a deployment opts in.
	F16Announce bool
	// DeltaHistory is how many recent model versions the server keeps
	// exact sparse deltas for, enabling version-aware pulls: a worker at
	// version t−τ (τ ≤ DeltaHistory) downloads the delta instead of the
	// full model. Deltas are precomputed at drain time so RequestTask
	// stays O(1); a delta denser than half the parameter vector is
	// discarded (the full pull is cheaper on the wire). Default 4;
	// negative disables delta pulls.
	DeltaHistory int
	// Checkpointer, when non-nil, makes the server crash-safe: learned
	// state (model, logical clock, AdaSGD staleness history, LD_global,
	// I-Prof models) is written as atomic, checksummed checkpoint files
	// (internal/persist) every CheckpointEvery windows and on explicit
	// Checkpoint calls (graceful shutdown). Boot from one with Restore /
	// RestoreLatest.
	Checkpointer *persist.Checkpointer
	// CheckpointEvery is the periodic cadence in aggregation windows
	// (model updates): every N-th drain schedules a checkpoint. 0
	// disables periodic checkpoints (explicit Checkpoint still works).
	//
	// The captured core is handed to a background writer goroutine, so
	// the encode + fsync spike never lands in a push's latency — with one
	// server per tenant, N fleets checkpointing would otherwise each
	// stall a pusher at their own cadence. Durability stays bounded: the
	// queue is small and enqueueing blocks when it is full, and Flush
	// (or Close) is the barrier that makes everything captured so far
	// durable — restores and graceful shutdowns call it first, which is
	// also what keeps the replayable restart scenarios deterministic.
	CheckpointEvery int
	// Seed initializes the global model.
	Seed int64
	// BootEpoch, when positive, is the incarnation epoch a freshly built
	// server starts at instead of 0. cmd/fleet-server derives it from a
	// persisted boot count (persist.BootNonce) so even a checkpoint-less
	// restart — -checkpoint-recover=fresh, or no checkpoint directory at
	// all — bumps the incarnation and forces live workers to resync,
	// instead of colliding with epoch 0 cached from the dead instance.
	// Ignored by Restore (the checkpoint's epoch + 1 wins).
	BootEpoch int64
}

// modelSnapshot is one immutable published state of the global model. The
// params slice is shared with every TaskResponse served from it and must
// never be written after publication.
type modelSnapshot struct {
	version int
	params  []float64
	// deltas maps an older version v to the exact sparse difference
	// params(v) → params, when sparse enough to be worth the wire; the
	// absence of an entry means "serve a full pull".
	deltas map[int]*compress.Sparse
}

// Server is the FLeet parameter server. All exported methods are safe for
// concurrent use.
type Server struct {
	cfg Config
	// paramCount and classes are immutable after New: request validation
	// reads them without holding any lock.
	paramCount int
	classes    int
	// labels guards itself (lock-free reads); it is never touched under mu.
	labels *learning.LabelTracker
	// pipe is the update pipeline (immutable after New); its aggregator
	// guards its own window state, so Process/Add run outside mu.
	pipe *pipeline.Pipeline
	// sparseOK caches pipe.SparseCapable(): whether a validated top-k push
	// may travel the pipeline as an index/value view and scatter straight
	// into the aggregator, skipping the O(params) densify per push.
	sparseOK bool
	// admit is the admission chain (immutable after New); stateful
	// policies synchronize themselves.
	admit sched.AdmissionPolicy

	// snap is the immutable (version, params, deltas) snapshot RequestTask
	// serves from without locking; it is replaced only inside drainLocked
	// (and so only under mu), but read anywhere.
	snap atomic.Pointer[modelSnapshot]

	// Task counters are atomic: the admission path must not contend with
	// the gradient-commit path. rejectsByPolicy is only touched on the
	// (already slow) reject path.
	tasksServed  atomic.Int64
	tasksDropped atomic.Int64
	rejectMu     sync.Mutex
	rejects      map[string]int

	// mu guards the model, the logical clock, the delta history and the
	// push counters.
	mu          sync.Mutex
	model       *nn.Network
	version     int
	pending     int
	history     *compress.History
	gradientsIn int
	// leafGradients counts individual worker gradients: an aggregated
	// push from an edge tier (GradientPush.Contributing > 0) adds its
	// contributing count here but 1 to gradientsIn.
	leafGradients int
	staleSum      float64
	drainErrors   int
	// windowsSinceCkpt counts drains toward the periodic checkpoint
	// cadence; ckptDue is the core state captured under mu when one falls
	// due, written to disk outside the lock by the push that drained.
	windowsSinceCkpt int
	ckptDue          *ckptCore
	// snapHook is the snapshot-publish notification (OnSnapshot): the
	// streaming transport broadcasts model announcements from it. Like the
	// checkpoint, the announce is captured under mu in drainLocked
	// (announceDue) and delivered by the draining push after unlock, so
	// the hook never runs inside the model lock yet observes (version,
	// epoch, delta) exactly as published.
	snapHook    atomic.Pointer[func(protocol.ModelAnnounce)]
	announceDue *protocol.ModelAnnounce

	// restoredVersion is the logical clock the server booted from (0 on a
	// fresh boot); epoch is the incarnation counter (Config.BootEpoch on
	// a fresh boot — 0 unless a boot nonce is wired in — and the
	// checkpoint's epoch + 1 after a restore). The epoch travels the wire
	// so version numbers from different incarnations are never confused:
	// a restored clock re-walks versions the dead instance already handed
	// out, with different parameters behind them. Both immutable after
	// New/Restore.
	//
	// Checkpoint-less restarts are covered too: cmd/fleet-server persists
	// a seed-derived boot count (persist.BootNonce) and passes the nonce
	// as BootEpoch, so a -recover=fresh boot still forces worker resync
	// instead of colliding with epoch 0 cached from the dead instance.
	// (The nonce is deterministic per (seed, boot count), keeping the
	// harness's bit-for-bit replay intact.)
	restoredVersion int
	epoch           int64
	// ckptMu serializes checkpoint writes; the counters are atomic so
	// Stats never waits on a write in flight. ckptVersion (under ckptMu)
	// is the highest version already persisted: a writer holding an older
	// captured core (it was descheduled between capture and write while
	// newer pushes checkpointed) skips instead of clobbering recency —
	// persist keys "latest" on a monotonic sequence number, so an
	// out-of-order write would otherwise make an older state the newest.
	ckptMu      sync.Mutex
	ckptVersion int
	checkpoints atomic.Int64
	ckptErrors  atomic.Int64

	// The background checkpoint writer (nil channels when no Checkpointer
	// is configured): drain-captured cores queue on ckptQ and are written
	// off the pushing goroutine. ckptQuit tells the writer to drain and
	// exit (Close); ckptDone closes when it has. closeOnce makes Close
	// idempotent.
	ckptQ     chan ckptReq
	ckptQuit  chan struct{}
	ckptDone  chan struct{}
	closeOnce sync.Once
}

// ckptCore is the model-critical slice of a checkpoint, captured atomically
// under s.mu at drain time: version and params move together. params shares
// the immutable snapshot storage, so the capture is O(1).
type ckptCore struct {
	version       int
	params        []float64
	gradientsIn   int
	leafGradients int
	staleSum      float64
}

// ckptReq is one unit of work for the background checkpoint writer: a
// fully captured state to persist, or (nil state) a flush barrier
// acknowledged once everything queued before it has been written. The
// state is captured on the push goroutine at enqueue time — capturing at
// write time would snapshot AdaSGD/label/profiler state that later pushes
// already advanced, making the durable bytes timing-dependent and breaking
// replayable restarts.
type ckptReq struct {
	st      *persist.State
	barrier chan struct{}
}

// ckptQueueDepth bounds the background writer's backlog; a full queue
// blocks the enqueueing push (backpressure), never drops durability.
const ckptQueueDepth = 4

// New builds a server with a freshly initialized global model.
func New(cfg Config) (*Server, error) {
	if cfg.Algorithm == nil {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument, "server: Algorithm is required")
	}
	if cfg.LearningRate <= 0 {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument, "server: LearningRate must be positive")
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
		cfg.DeltaHistory = 0 // negative disables; 0 internally means "none kept"
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
		// The legacy-equivalent default: each Figure-2 controller stage,
		// included only when its knob is set, in the order the hardwired
		// block ran them.
		var policies []sched.AdmissionPolicy
		if cfg.TimeProfiler != nil && cfg.TimeSLOSec > 0 {
			policies = append(policies, sched.IProfTime(cfg.TimeProfiler, cfg.TimeSLOSec))
		}
		if cfg.EnergyProfiler != nil && cfg.EnergySLOPct > 0 {
			policies = append(policies, sched.IProfEnergy(cfg.EnergyProfiler, cfg.EnergySLOPct))
		}
		if cfg.MinBatchSize > 0 {
			policies = append(policies, sched.MinBatch(cfg.MinBatchSize))
		}
		if cfg.MaxSimilarity > 0 {
			policies = append(policies, sched.Similarity(cfg.MaxSimilarity))
		}
		cfg.Admission = sched.NewChain(policies...)
	}
	if cfg.BootEpoch < 0 {
		cfg.BootEpoch = 0
	}
	model := cfg.Arch.Build(simrand.New(cfg.Seed))
	s := &Server{
		cfg:        cfg,
		paramCount: model.ParamCount(),
		classes:    cfg.Arch.Classes(),
		model:      model,
		labels:     learning.NewLabelTracker(cfg.Arch.Classes()),
		pipe:       cfg.Pipeline,
		sparseOK:   cfg.Pipeline.SparseCapable(),
		admit:      cfg.Admission,
		rejects:    map[string]int{},
		epoch:      cfg.BootEpoch,
		history:    compress.NewHistory(cfg.DeltaHistory),
	}
	s.publishBoot(0)
	if cfg.Checkpointer != nil {
		s.ckptQ = make(chan ckptReq, ckptQueueDepth)
		s.ckptQuit = make(chan struct{})
		s.ckptDone = make(chan struct{})
		go s.ckptWriter()
	}
	return s, nil
}

// publishBoot publishes the model as it stands at boot (fresh or restored)
// as the first snapshot of this incarnation, with an empty delta history.
func (s *Server) publishBoot(version int) {
	params := s.model.ParamVector()
	s.history.Reset(version, params)
	s.snap.Store(&modelSnapshot{version: version, params: params})
}

// Pipeline returns the server's composed update pipeline.
func (s *Server) Pipeline() *pipeline.Pipeline { return s.pipe }

// Admission returns the server's composed admission chain.
func (s *Server) Admission() sched.AdmissionPolicy { return s.admit }

// RequestTask processes step (1)→(4) of Figure 2: screen the task through
// the admission chain (I-Prof batch sizing, the controller) and serve the
// model. The accept path is lock-free and O(1) in the model size: the
// response either shares the immutable snapshot's parameter slice (full
// pull) or hands out a delta precomputed at drain time (version-aware
// pull). The only synchronization is the label tracker's lock-free
// snapshot read and whatever stateful admission policies do internally.
func (s *Server) RequestTask(ctx context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, protocol.AsError(err)
	}
	if err := protocol.ValidateLabelCounts("TaskRequest.label_counts", req.LabelCounts, s.classes); err != nil {
		return nil, err
	}

	areq := &sched.TaskRequest{
		Wire:       req,
		BatchSize:  s.cfg.DefaultBatchSize,
		Similarity: s.labels.Similarity(req.LabelCounts),
	}
	decision, err := s.admit.Admit(ctx, areq)
	if err != nil {
		return nil, protocol.AsError(err)
	}

	// Re-check before committing controller state: the profiler lookups
	// and similarity scan above may have outlived the caller's deadline.
	if err := ctx.Err(); err != nil {
		return nil, protocol.AsError(err)
	}

	if !decision.Accept {
		s.tasksDropped.Add(1)
		s.rejectMu.Lock()
		s.rejects[decision.Policy]++
		s.rejectMu.Unlock()
		return &protocol.TaskResponse{Accepted: false, Reason: decision.Reason}, nil
	}

	s.tasksServed.Add(1)
	snap := s.snap.Load()
	resp := &protocol.TaskResponse{
		Accepted:     true,
		ModelVersion: snap.version,
		BatchSize:    decision.BatchSize,
		ServerEpoch:  s.epoch,
	}
	// A delta is only meaningful against this incarnation's own version
	// stream: after a restore, a client's cached "version 33" names the
	// dead instance's parameters, not ours — patching our delta onto it
	// would silently corrupt the cache. Epoch mismatch → full pull.
	if req.WantDelta && req.KnownEpoch == s.epoch {
		if req.KnownVersion == snap.version {
			// Already current: the empty delta.
			resp.ParamsDelta = &compress.Sparse{Len: len(snap.params)}
			resp.DeltaBase = req.KnownVersion
			return resp, nil
		}
		if d, ok := snap.deltas[req.KnownVersion]; ok {
			resp.ParamsDelta = d
			resp.DeltaBase = req.KnownVersion
			return resp, nil
		}
		// Version too old, from the future, or the delta went dense:
		// transparent fallback to a full pull.
	}
	resp.Params = snap.params // shared immutable snapshot storage
	resp.Full = true
	return resp, nil
}

// PushGradient processes step (5): the gradient runs through the update
// pipeline's stages (staleness scaling, DP, filters), lands in the window
// aggregator, and the model is updated after K gradients; the measured
// cost feeds back into I-Prof.
func (s *Server) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	if err := ctx.Err(); err != nil {
		return nil, protocol.AsError(err)
	}
	// Validation and sparse decoding touch only the immutable paramCount,
	// so they run outside every lock. The shared payload decoder handles
	// every uplink dialect — dense, top-k, and the quantized top-k forms —
	// and reports whether the indices are strictly ascending (the
	// precondition for the zero-copy scatter path below).
	payload, err := protocol.DecodeGradientPayload(push, s.paramCount)
	if err != nil {
		return nil, err
	}
	if push.BatchSize <= 0 {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument,
			"server: non-positive batch size %d", push.BatchSize)
	}
	if err := protocol.ValidateLabelCounts("GradientPush.label_counts", push.LabelCounts, s.classes); err != nil {
		return nil, err
	}

	// Feed I-Prof outside the model lock.
	if s.cfg.TimeProfiler != nil && push.CompTimeSec > 0 && len(push.TimeFeatures) > 0 {
		s.cfg.TimeProfiler.Observe(iprof.Observation{
			DeviceModel: push.DeviceModel,
			Features:    push.TimeFeatures,
			Alpha:       push.CompTimeSec / float64(push.BatchSize),
		})
	}
	if s.cfg.EnergyProfiler != nil && push.EnergyPct > 0 && len(push.EnergyFeatures) > 0 {
		s.cfg.EnergyProfiler.Observe(iprof.Observation{
			DeviceModel: push.DeviceModel,
			Features:    push.EnergyFeatures,
			Alpha:       push.EnergyPct / float64(push.BatchSize),
		})
	}

	sim := s.labels.Similarity(push.LabelCounts)

	// Last abort point: past here the gradient is counted and accumulated,
	// which must complete even if the deadline lapses mid-flight. Checking
	// again after the O(params) decode and the profiler feeds lets a
	// Deadline interceptor actually fire on in-process calls that queued
	// too long.
	if err := ctx.Err(); err != nil {
		return nil, protocol.AsError(err)
	}

	// A gradient from another incarnation was computed on parameters this
	// server cannot reason about (the same version number names different
	// params across a restore): version_conflict, the resync signal — the
	// worker drops its cache, re-pulls full and recomputes.
	if push.ModelEpoch != s.epoch {
		return nil, protocol.Errorf(protocol.CodeVersionConflict,
			"server: gradient from server incarnation %d (this is incarnation %d, restored after a restart); re-pull and recompute",
			push.ModelEpoch, s.epoch)
	}

	// Staleness against the logical clock, read lock-free from the
	// published snapshot (version and snapshot move together under mu
	// inside drainLocked, so the snapshot's clock is never ahead).
	staleness := s.snap.Load().version - push.ModelVersion
	if staleness < 0 {
		return nil, protocol.Errorf(protocol.CodeVersionConflict,
			"server: gradient from future model version %d (at %d)", push.ModelVersion, push.ModelVersion+staleness)
	}

	// Pipeline stages: staleness scaling, DP perturbation, filters — the
	// O(params) work stays outside s.mu. A stage rejection (e.g. the norm
	// filter) surfaces before the gradient is counted or accumulated.
	//
	// Sparse fast path: a validated, strictly-ascending top-k view travels
	// the pipeline as-is and scatters straight into the shard accumulators
	// (pipeline.SparseAdder) — zero O(params) allocations per push. Gated
	// on sparseOK (every stage SparseSafe, aggregator a SparseAdder).
	// Decoded payloads always arrive Ascending (the decoder canonicalizes
	// out-of-order and duplicate indices with densify's last-value-wins
	// semantics); the gate remains for hand-built payloads.
	g := &pipeline.Gradient{
		Meta: learning.GradientMeta{
			Staleness:  staleness,
			Similarity: sim,
			BatchSize:  push.BatchSize,
			WorkerID:   push.WorkerID,
		},
		Scale: 1,
	}
	if payload.Sparse() && payload.Ascending && s.sparseOK {
		g.Vec = payload.Values
		g.Indices = payload.Indices
		g.DenseLen = s.paramCount
	} else {
		g.Vec = payload.Densify(s.paramCount)
	}
	if err := s.pipe.Process(g); err != nil {
		return nil, err
	}

	// The algorithm observes the staleness after scaling (matching the
	// pre-pipeline order: a gradient's own staleness enters the quantile
	// history only after its scale is fixed), and LD_global accumulates
	// label mass weighted by the pure staleness dampening, so labels the
	// model never effectively incorporated keep their novelty (and keep
	// being boosted).
	s.cfg.Algorithm.Observe(g.Meta)
	absorb := s.cfg.Algorithm.AbsorbWeight(g.Meta)
	s.labels.RecordWeighted(push.LabelCounts, absorb)

	// Window accumulation: the aggregator synchronizes itself (per-shard
	// locks for the mean, the window lock for retention mode), so pushes
	// proceed in parallel here.
	s.pipe.Add(g)

	// Commit section: a push only counts toward the K-window after its
	// mass reaches the aggregator, so when pending hits K every counted
	// gradient is already in the window and the drain can never strand
	// acked mass. The logical clock advances inside drainLocked, after the
	// model is updated, keeping (params, version) consistent for
	// RequestTask.
	//
	// A drain failure does NOT fail the push: this gradient was already
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

	s.mu.Lock()
	s.gradientsIn++
	s.leafGradients += contrib
	s.staleSum += float64(staleness)
	s.pending++
	if s.pending >= s.cfg.K {
		s.pending = 0
		if err := s.drainLocked(); err != nil {
			s.drainErrors++
		}
	}
	ack := &protocol.PushAck{
		Applied:    true,
		Staleness:  staleness,
		Scale:      g.Scale,
		NewVersion: s.version,
	}
	due := s.ckptDue
	s.ckptDue = nil
	ann := s.announceDue
	s.announceDue = nil
	s.mu.Unlock()
	if ann != nil {
		if fn := s.snapHook.Load(); fn != nil {
			(*fn)(*ann)
		}
	}
	if due != nil {
		// The periodic checkpoint the drain scheduled: the full state is
		// captured here, on the push goroutine with the model lock already
		// released — the same cut the synchronous writer took — and only
		// the encode+fsync is deferred to the background writer.
		s.enqueueCheckpoint(s.captureState(*due))
	}
	return ack, nil
}

// ckptWriter is the background checkpoint goroutine: it encodes and fsyncs
// queued cores off the push path, acknowledges flush barriers, and on Close
// drains whatever is already queued before exiting.
func (s *Server) ckptWriter() {
	defer close(s.ckptDone)
	serve := func(req ckptReq) {
		if req.st != nil {
			s.saveState(req.st)
		}
		if req.barrier != nil {
			close(req.barrier)
		}
	}
	for {
		select {
		case req := <-s.ckptQ:
			serve(req)
		case <-s.ckptQuit:
			for {
				select {
				case req := <-s.ckptQ:
					serve(req)
				default:
					return
				}
			}
		}
	}
}

// enqueueCheckpoint hands a captured state to the background writer. The
// queue is small and the send blocks when it is full — backpressure, never
// dropped durability. A push racing Close (the writer already gone) falls
// back to writing synchronously, preserving the pre-Close guarantee.
func (s *Server) enqueueCheckpoint(st *persist.State) {
	select {
	case s.ckptQ <- ckptReq{st: st}:
	case <-s.ckptDone:
		s.saveState(st)
	}
}

// Flush is the checkpoint barrier: it returns once every core captured
// before the call is durable (or failed and was counted — same as the
// synchronous path). A server without a Checkpointer returns immediately.
// Restores and graceful shutdowns flush first, so "what was due before the
// cut" is exactly what a restore will find — the property the replayable
// restart scenarios assert bit-for-bit.
func (s *Server) Flush() {
	if s.ckptQ == nil {
		return
	}
	barrier := make(chan struct{})
	select {
	case s.ckptQ <- ckptReq{barrier: barrier}:
		select {
		case <-barrier:
		case <-s.ckptDone:
		}
	case <-s.ckptDone:
	}
}

// Close flushes the checkpoint queue and stops the background writer.
// Idempotent; a server without a Checkpointer has nothing to do. Close does
// not take a final checkpoint — callers wanting one (graceful shutdown)
// call Checkpoint first. The server remains usable for serving after Close
// (late periodic checkpoints degrade to synchronous writes), but the
// intended order is: quiesce, Checkpoint if desired, Close.
func (s *Server) Close() error {
	if s.ckptQ == nil {
		return nil
	}
	s.closeOnce.Do(func() {
		s.Flush()
		close(s.ckptQuit)
		<-s.ckptDone
	})
	return nil
}

// OnSnapshot registers fn to be called after every drain that publishes a
// new model snapshot, with the just-published version, epoch and (when the
// delta history retains one) the sparse delta from the immediately
// preceding version — exactly what a streaming transport broadcasts to
// subscribed workers. fn runs on the goroutine of the push that drained,
// outside the model lock, strictly before that push's ack returns; keep it
// non-blocking (the stream server's Broadcast is). A nil fn unregisters.
func (s *Server) OnSnapshot(fn func(protocol.ModelAnnounce)) {
	if fn == nil {
		s.snapHook.Store(nil)
		return
	}
	s.snapHook.Store(&fn)
}

// drainLocked folds the aggregator's window into the model, advances the
// logical clock, and publishes a fresh immutable snapshot, so version and
// parameters move together under s.mu. Callers hold s.mu; the aggregator
// takes its own locks inside (lock order s.mu → aggregator, acyclic). The
// clock advances even when the drain errors (the window is discarded), so
// a poisoned window cannot stall the version stream. The error is counted
// by the caller into Stats.DrainErrors and never surfaced to the pusher —
// its gradient is committed either way, so the push is not retriable;
// built-in aggregators never error on server-validated windows.
//
// This is also where the cost of the lock-free pull path lives, paid once
// per K-window and never per RequestTask: one ParamVector copy for the new
// snapshot, one v−1→v step delta (a diff of the two vectors, or of the
// coordinates a window of sparse pushes touched), and per older history
// entry a merge over only the coordinates that moved (compress.History).
// A delta denser than half the vector is abandoned and its version falls
// back to full pulls.
func (s *Server) drainLocked() error {
	// A window of sparse pushes only is applied at the coordinates they
	// touched, and the step delta is found there too.
	var touched []int32
	err := s.pipe.DrainTouched(func(direction []float64, at []int32) {
		if touched = at; at == nil {
			s.model.ApplyGradient(direction, s.cfg.LearningRate)
		} else {
			s.model.ApplyGradientAt(at, direction, s.cfg.LearningRate)
		}
	})
	s.version++

	old := s.snap.Load()
	next := &modelSnapshot{version: s.version, params: s.model.ParamVector()}
	next.deltas = s.history.Advance(next.version, next.params, touched)
	s.snap.Store(next)

	// Snapshot-publish notification: captured here so the announce carries
	// the same immutable state just stored, delivered by the draining push
	// after it releases s.mu (see OnSnapshot). The v−1→v delta, when the
	// history kept one, is shared with the snapshot — immutable, so the
	// transport may encode it concurrently with further drains.
	if s.snapHook.Load() != nil {
		s.announceDue = &protocol.ModelAnnounce{
			ModelVersion: s.version,
			ServerEpoch:  s.epoch,
		}
		if d, ok := next.deltas[old.version]; ok {
			s.announceDue.Delta = d
			s.announceDue.DeltaBase = old.version
		} else if s.cfg.F16Announce {
			// No exact delta retained (dense-gradient deployments hit
			// Diff's half-vector bound every window): attach the full
			// model in half precision so subscribers still absorb the
			// announce instead of falling back to a delta-less ping.
			s.announceDue.ParamsF16 = compress.PackF16(next.params)
		}
	}

	// Periodic crash safety: every CheckpointEvery-th window schedules a
	// durable snapshot. Only the O(1) core capture happens here (params
	// shares the just-published immutable storage); the push that drained
	// writes the file after releasing s.mu.
	if s.cfg.Checkpointer != nil && s.cfg.CheckpointEvery > 0 {
		s.windowsSinceCkpt++
		if s.windowsSinceCkpt >= s.cfg.CheckpointEvery {
			s.windowsSinceCkpt = 0
			s.ckptDue = &ckptCore{
				version:       s.version,
				params:        next.params,
				gradientsIn:   s.gradientsIn,
				leafGradients: s.leafGradients,
				staleSum:      s.staleSum,
			}
		}
	}
	return err
}

// captureState assembles the full persist.State around a core capture. The
// auxiliary blocks (AdaSGD history, LD_global, profilers) snapshot
// themselves under their own locks, so they may trail the core by the few
// pushes that landed since the drain — they tune scaling heuristics, not
// model correctness (see persist.State).
func (s *Server) captureState(core ckptCore) *persist.State {
	st := &persist.State{
		Arch:          s.cfg.Arch.String(),
		Epoch:         s.epoch,
		Version:       core.version,
		Params:        core.params,
		GradientsIn:   core.gradientsIn,
		LeafGradients: core.leafGradients,
		StaleSum:      core.staleSum,
		TasksServed:   s.tasksServed.Load(),
		TasksDropped:  s.tasksDropped.Load(),
	}
	if a, ok := s.cfg.Algorithm.(*learning.AdaSGD); ok {
		ada := a.ExportState()
		st.AdaSGD = &ada
	}
	labels := s.labels.ExportState()
	st.Labels = &labels
	if s.cfg.TimeProfiler != nil {
		st.TimeProfiler = s.cfg.TimeProfiler.ExportState()
	}
	if s.cfg.EnergyProfiler != nil {
		st.EnergyProfiler = s.cfg.EnergyProfiler.ExportState()
	}
	return st
}

// saveState persists one captured state; failures are counted (and visible
// in Stats.CheckpointErrors), never propagated onto the push path. A state
// older than what is already durable is dropped: writing it would register
// as the newest checkpoint and roll a future restore backwards.
func (s *Server) saveState(st *persist.State) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if st.Version < s.ckptVersion {
		return
	}
	if _, err := s.cfg.Checkpointer.Save(st); err != nil {
		s.ckptErrors.Add(1)
		return
	}
	s.ckptVersion = st.Version
	s.checkpoints.Add(1)
}

// Checkpoint writes a durable snapshot of the current state now — the
// graceful-shutdown path (fleet-server checkpoints on SIGTERM before
// draining), also useful around risky operations. It requires a configured
// Checkpointer.
func (s *Server) Checkpoint() (string, error) {
	if s.cfg.Checkpointer == nil {
		return "", protocol.Errorf(protocol.CodeInvalidArgument, "server: no Checkpointer configured")
	}
	// ckptMu first, capture second: the capture is then guaranteed at
	// least as new as anything already persisted, so the recency guard
	// never fires on the explicit path. The order is acyclic with the
	// push path, which releases s.mu before taking ckptMu.
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.Lock()
	snap := s.snap.Load()
	core := ckptCore{
		version:       snap.version,
		params:        snap.params,
		gradientsIn:   s.gradientsIn,
		leafGradients: s.leafGradients,
		staleSum:      s.staleSum,
	}
	s.ckptDue = nil // an explicit checkpoint supersedes a scheduled one
	s.mu.Unlock()

	path, err := s.cfg.Checkpointer.Save(s.captureState(core))
	if err != nil {
		s.ckptErrors.Add(1)
		return "", err
	}
	s.ckptVersion = core.version
	s.checkpoints.Add(1)
	return path, nil
}

// Restore builds a server whose learned state comes from a checkpoint
// instead of a fresh initialization: the model and logical clock resume at
// the checkpointed version, AdaSGD's staleness history, LD_global and the
// I-Prof models (where configured) are reinstated, and the push/task
// counters carry over. The delta history is intentionally NOT restored —
// deltas reference exact parameter vectors the restarted process no longer
// holds — so version-aware pulls fall back to full downloads until the
// history refills at drain time.
//
// Validation is strict and structured: an architecture or parameter-count
// mismatch against cfg.Arch fails with invalid_argument rather than booting
// a silently wrong model.
func Restore(cfg Config, st *persist.State) (*Server, error) {
	if st == nil {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument, "server: Restore with nil state")
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if st.Arch != s.cfg.Arch.String() {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument,
			"server: checkpoint is for architecture %q, config wants %q", st.Arch, s.cfg.Arch.String())
	}
	if len(st.Params) != s.paramCount {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument,
			"server: checkpoint has %d params, architecture %q needs %d", len(st.Params), s.cfg.Arch, s.paramCount)
	}
	if st.Version < 0 {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument,
			"server: checkpoint has negative version %d", st.Version)
	}
	s.model.SetParams(st.Params)
	s.version = st.Version
	s.gradientsIn = st.GradientsIn
	s.leafGradients = st.LeafGradients
	s.staleSum = st.StaleSum
	s.restoredVersion = st.Version
	// A new incarnation: pushes and delta requests carrying the old epoch
	// are detected instead of colliding with our re-walked version stream.
	s.epoch = st.Epoch + 1
	s.tasksServed.Store(st.TasksServed)
	s.tasksDropped.Store(st.TasksDropped)
	s.publishBoot(st.Version)
	if st.AdaSGD != nil {
		if a, ok := s.cfg.Algorithm.(*learning.AdaSGD); ok {
			a.RestoreState(*st.AdaSGD)
		}
	}
	if st.Labels != nil {
		if err := s.labels.RestoreState(*st.Labels); err != nil {
			return nil, protocol.Errorf(protocol.CodeInvalidArgument, "server: %v", err)
		}
	}
	if st.TimeProfiler != nil && s.cfg.TimeProfiler != nil {
		if err := s.cfg.TimeProfiler.RestoreState(st.TimeProfiler); err != nil {
			return nil, protocol.Errorf(protocol.CodeInvalidArgument, "server: time profiler: %v", err)
		}
	}
	if st.EnergyProfiler != nil && s.cfg.EnergyProfiler != nil {
		if err := s.cfg.EnergyProfiler.RestoreState(st.EnergyProfiler); err != nil {
			return nil, protocol.Errorf(protocol.CodeInvalidArgument, "server: energy profiler: %v", err)
		}
	}
	return s, nil
}

// RestoreLatest boots from the newest valid checkpoint in dir — what
// fleet-server -checkpoint-dir does on startup. The error is structured:
// persist.ErrNoCheckpoint for an empty directory (callers explicitly
// allowing fresh boots test for it), a *persist.CorruptError when files
// exist but none loads.
func RestoreLatest(cfg Config, dir string) (*Server, error) {
	st, _, err := persist.LoadLatest(dir)
	if err != nil {
		return nil, err
	}
	return Restore(cfg, st)
}

// RestoredVersion returns the logical clock the server booted from: 0 for
// a fresh boot, the checkpoint's version after Restore.
func (s *Server) RestoredVersion() int { return s.restoredVersion }

// Epoch returns the server's incarnation counter: 0 for a fresh boot,
// incremented by every checkpoint restore.
func (s *Server) Epoch() int64 { return s.epoch }

// Stats returns a diagnostic snapshot, including the composed update
// pipeline (stage names in chain order plus the window aggregator) and the
// composed admission chain with its per-policy reject counters.
func (s *Server) Stats(ctx context.Context) (*protocol.Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, protocol.AsError(err)
	}
	served := int(s.tasksServed.Load())
	dropped := int(s.tasksDropped.Load())
	s.rejectMu.Lock()
	var rejects map[string]int
	if len(s.rejects) > 0 {
		rejects = make(map[string]int, len(s.rejects))
		for k, v := range s.rejects {
			rejects[k] = v
		}
	}
	s.rejectMu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	mean := 0.0
	if s.gradientsIn > 0 {
		mean = s.staleSum / float64(s.gradientsIn)
	}
	return &protocol.Stats{
		ModelVersion:      s.version,
		TasksServed:       served,
		TasksRejected:     dropped,
		TasksDropped:      dropped,
		GradientsIn:       s.gradientsIn,
		LeafGradients:     s.leafGradients,
		MeanStaleness:     mean,
		PipelineStages:    s.pipe.StageNames(),
		Aggregator:        s.pipe.AggregatorName(),
		AdmissionPolicies: sched.Names(s.admit),
		RejectsByPolicy:   rejects,
		DrainErrors:       s.drainErrors,
		Checkpoints:       int(s.checkpoints.Load()),
		CheckpointErrors:  int(s.ckptErrors.Load()),
		RestoredVersion:   s.restoredVersion,
		ServerEpoch:       s.epoch,
	}, nil
}

// Model returns a copy of the current global parameters and their version,
// served lock-free from the published snapshot.
func (s *Server) Model() ([]float64, int) {
	snap := s.snap.Load()
	out := make([]float64, len(snap.params))
	copy(out, snap.params)
	return out, snap.version
}

// Evaluate computes test accuracy of the current global model. The provided
// scratch network must have the same architecture; it is overwritten.
func (s *Server) Evaluate(scratch *nn.Network, test []nn.Sample) float64 {
	params, _ := s.Model()
	scratch.SetParams(params)
	return scratch.Accuracy(test)
}
