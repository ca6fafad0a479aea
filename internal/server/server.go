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
// Payloads are Content-Type negotiated between the flat binary codec (the
// default) and JSON (see internal/protocol).
//
// The learning-task path itself is internal/ingest's, shared with the edge
// aggregator, and its two halves scale independently: on the uplink every
// accepted gradient travels the update pipeline (internal/pipeline) into a
// window aggregator; on the downlink admission runs through a pluggable
// policy chain (internal/sched) and the model is served lock-free from an
// immutable snapshot. This package is the root's window sink: what a full
// window does here is fold into the global model under the ingest commit
// lock, publish the next snapshot with the delta from the previous one,
// announce it and checkpoint it.
package server

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"fleet/internal/compress"
	"fleet/internal/ingest"
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
	// Pipeline, when non-nil, replaces the server's update pipeline: the
	// chain of per-gradient stages and the window aggregator every pushed
	// gradient travels (see internal/pipeline). When nil the server builds
	// the legacy-equivalent default — a staleness-scaling stage wrapping
	// Algorithm in front of the mean window.
	// A pipeline is stateful (its aggregator holds window buffers):
	// build one per server, never share an instance between servers.
	// Build one directly (pipeline.New) or from string specs
	// (pipeline.Build), e.g.
	//
	//	pipeline.Build("staleness,norm-filter(100)", "krum(1)",
	//	    pipeline.BuildOptions{Algorithm: algo, Seed: seed})
	Pipeline *pipeline.Pipeline
	// Admission, when non-nil, replaces the task-admission chain: the
	// policy sequence every TaskRequest travels before the model is
	// served (see internal/sched). Nil admits every task at
	// DefaultBatchSize. Policies may hold per-worker state (quotas): build
	// one chain per server. Build one directly (sched.NewChain) or from
	// string specs (sched.Build), e.g.
	//
	//	sched.Build("iprof-time(3),min-batch(5),similarity(0.9)",
	//	    sched.BuildOptions{TimeProfiler: prof})
	Admission sched.AdmissionPolicy
	// TimeProfiler and EnergyProfiler are the I-Prof instances the server
	// trains and checkpoints: PushGradient feeds measured costs back into
	// them, whether or not an Admission chain uses them for batch sizing.
	TimeProfiler   *iprof.IProf
	EnergyProfiler *iprof.IProf
	// DefaultBatchSize is the batch a task carries when no admission policy
	// sizes it (default 100, the paper's mini-batch size).
	DefaultBatchSize int
	// DeltaHistory is how many recent model versions the server keeps
	// exact sparse deltas for, enabling version-aware pulls: a worker at
	// version t−τ (τ ≤ DeltaHistory) downloads the delta instead of the
	// full model. A drain takes only the delta from the previous version
	// (the announce carries it), so RequestTask is O(1) in the model size
	// for a worker at the current or the previous version; the delta from
	// an older retained version is composed by the first pull that names
	// it — one pass over the coordinates that moved since, once per base
	// and snapshot, never under the commit lock — and shared afterwards.
	// A delta denser than half the parameter vector is discarded (the
	// full pull is cheaper on the wire). Default 4; negative disables
	// delta pulls.
	DeltaHistory int
	// Checkpointer, when non-nil, makes the server crash-safe: learned
	// state (model, logical clock, AdaSGD staleness history, LD_global,
	// I-Prof models) is written as atomic, checksummed checkpoint files
	// (internal/persist) every CheckpointEvery windows and on explicit
	// Checkpoint calls (graceful shutdown). Boot from one with Restore.
	Checkpointer *persist.Checkpointer
	// CheckpointEvery is the periodic cadence in aggregation windows
	// (model updates): every N-th drain schedules a checkpoint. 0
	// disables periodic checkpoints (explicit Checkpoint still works).
	//
	// The push that closes the N-th window writes the checkpoint itself,
	// after the commit lock is released and before its ack returns: other
	// pushes and pulls go on meanwhile, and once that ack is back the
	// version it published is durable. That push pays the encode + fsync
	// (BenchmarkCheckpoint prices it per architecture).
	CheckpointEvery int
	// Seed initializes the global model.
	Seed int64
	// BootEpoch names this incarnation (0 when negative): a pulled
	// (version, epoch) pair names one parameter vector only while no two
	// instances serving the same clock share an epoch. node derives it
	// from the state directory's persisted boot count (persist.BootNonce)
	// on every boot, fresh or restored, so each boot of a directory has
	// its own and live workers of the dead instance resync. Restore
	// refuses the checkpoint's own epoch.
	BootEpoch int64
}

// Server is the FLeet parameter server. All exported methods are safe for
// concurrent use.
type Server struct {
	cfg Config
	// core is the learning-task path (admission, pipeline, K-window,
	// snapshot, counters); the server is its window sink (rootSink).
	core *ingest.Core[drained]
	// paramCount and classes are immutable after New.
	paramCount int
	classes    int

	// model is only written when a window closes, under the core's commit
	// lock (rootSink.CloseWindow), and read there to publish the snapshot
	// everything else is served from.
	model *nn.Network
	// windowsSinceCkpt counts drains toward the periodic checkpoint
	// cadence, under the same lock.
	windowsSinceCkpt int
	// snapHook is the snapshot-publish notification (OnSnapshot): the
	// streaming transport broadcasts model announcements from it. The
	// draining push delivers it after the commit lock is released, so the
	// hook never runs inside the commit lock yet observes (version, epoch,
	// delta) exactly as published.
	snapHook atomic.Pointer[func(protocol.ModelAnnounce)]

	// restoredVersion is the logical clock the server booted from (0 on a
	// fresh boot); epoch is the incarnation's name, Config.BootEpoch. The
	// epoch travels the wire so version numbers from different
	// incarnations are never confused: a restored or fresh clock re-walks
	// versions the dead instance already handed out, with different
	// parameters behind them. Epochs are compared for equality only; they
	// have no order. Both immutable after New/Restore.
	restoredVersion int
	epoch           int64
	// ckptMu serializes checkpoint writes; the counters are atomic so
	// Stats never waits on a write in flight. ckptVersion (under ckptMu)
	// is the highest version already persisted: a draining push holding an
	// older captured core (it was descheduled between capture and write
	// while a newer draining push checkpointed) skips instead of clobbering
	// recency — persist keys "latest" on a monotonic sequence number, so an
	// out-of-order write would otherwise make an older state the newest.
	ckptMu      sync.Mutex
	ckptVersion int
	checkpoints atomic.Int64
	ckptErrors  atomic.Int64
}

// drained is what a closed window leaves the push that closed it to do once
// the commit lock is released: announce the snapshot it published and, when
// the periodic cadence fell due, checkpoint the cut taken with it — the
// model-critical slice of a checkpoint, captured atomically under the commit
// lock: version, params and push accounting move together. The params are
// the snapshot's own storage under a lease, so the capture is O(1).
type drained struct {
	snap    *ingest.Lease
	tally   ingest.Tally
	ckptDue bool
}

// New builds a server with a freshly initialized global model.
func New(cfg Config) (*Server, error) {
	if !(cfg.LearningRate > 0) { // refuses NaN too
		return nil, protocol.Errorf(protocol.CodeInvalidArgument, "server: LearningRate must be positive")
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
		epoch:      cfg.BootEpoch,
	}
	var err error
	s.core, err = ingest.New(ingest.Config{
		Name:             "server",
		ParamCount:       s.paramCount,
		Classes:          s.classes,
		Algorithm:        cfg.Algorithm,
		K:                cfg.K,
		Pipeline:         cfg.Pipeline,
		Admission:        cfg.Admission,
		TimeProfiler:     cfg.TimeProfiler,
		EnergyProfiler:   cfg.EnergyProfiler,
		DefaultBatchSize: cfg.DefaultBatchSize,
		DeltaHistory:     cfg.DeltaHistory,
	}, (*rootSink)(s))
	if err != nil {
		return nil, err
	}
	s.core.Boot(0, s.epoch, model.ParamVector())
	return s, nil
}

// Pipeline returns the server's composed update pipeline.
func (s *Server) Pipeline() *pipeline.Pipeline { return s.core.Config().Pipeline }

// Admission returns the server's composed admission chain.
func (s *Server) Admission() sched.AdmissionPolicy { return s.core.Config().Admission }

// RequestTask processes step (1)→(4) of Figure 2 (ingest.Core.RequestTask):
// admission, then the model served lock-free from the published snapshot.
func (s *Server) RequestTask(ctx context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	return s.core.RequestTask(ctx, req)
}

// PushGradient processes step (5) (ingest.Core.PushGradient): the gradient
// runs through the update pipeline into the window aggregator, and the
// model is updated after K gradients; the measured cost feeds back into
// I-Prof.
func (s *Server) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	return s.core.PushGradient(ctx, push)
}

// rootSink is the server as the ingest core's window sink.
type rootSink Server

// Sync is never reached: New and Restore publish before serving.
func (*rootSink) Sync(context.Context) error { return nil }

// Fold has nothing to carry per push: the root's window is the
// aggregator's mass alone.
func (*rootSink) Fold(*protocol.GradientPush, int) {}

// OnSnapshot registers fn to be called after every drain that publishes a
// new model snapshot, with the just-published version, epoch and (when the
// delta history retains one) the sparse delta from the immediately
// preceding version — exactly what a streaming transport broadcasts to
// subscribed workers. fn runs on the goroutine of the push that drained,
// outside the commit lock, strictly before that push's ack returns; keep it
// non-blocking (the stream server's Broadcast is). A nil fn unregisters.
func (s *Server) OnSnapshot(fn func(protocol.ModelAnnounce)) {
	if fn == nil {
		s.snapHook.Store(nil)
		return
	}
	s.snapHook.Store(&fn)
}

// CloseWindow folds the aggregator's window into the model, advances the
// logical clock, and publishes a fresh immutable snapshot, so version and
// parameters move together under the commit lock. The clock advances even
// when the drain errors (the window is discarded), so a poisoned window
// cannot stall the version stream; built-in aggregators never error on
// server-validated windows.
//
// This is also where most of the cost of the lock-free pull path lives,
// paid once per K-window: one copy of the model's arena into storage the
// core recycled from a snapshot nothing reads any more (allocated, unzeroed,
// only while none is free: warm-up, or every snapshot escaped in process) and
// one v−1→v step delta. When the aggregator's drain lists the coordinates
// its window touched (the mean window does while every push of the window
// was sparse; see pipeline.WindowAggregator), the direction is applied at
// those coordinates only and the step is recorded as it is written; a nil
// list means a dense apply, and the step is a diff of the two vectors. The
// delta from an older history entry is not taken here: the first pull that
// names that base composes it, off this lock, by a merge over only the
// coordinates that moved (compress.Deltas.From). A delta denser than half
// the vector is abandoned and its version falls back to full pulls.
func (k *rootSink) CloseWindow(tally ingest.Tally) (drained, error) {
	s := (*Server)(k)
	var step *compress.Sparse
	err := s.Pipeline().DrainTouched(func(direction []float64, at []int32) {
		if at == nil {
			s.model.ApplyGradient(direction, s.cfg.LearningRate)
			return
		}
		// The step becomes the published delta, so its storage is new
		// each window: allocated once, for every touched coordinate.
		idx, vals := s.model.ApplyGradientAt(at, direction, s.cfg.LearningRate, nil, nil)
		step = &compress.Sparse{Len: s.paramCount, Indices: idx, Values: vals}
	})
	s.core.Advance(s.core.Snapshot().Version+1, s.model.CopyParams(s.core.Buffer()), step)
	d := drained{snap: s.core.Lease(), tally: tally} // the one just published

	// Periodic crash safety: every CheckpointEvery-th window schedules a
	// durable snapshot. Only the O(1) core capture happens here (params
	// shares the just-published storage, under d's lease); the push that
	// drained writes it after the commit lock is released.
	if s.cfg.Checkpointer != nil && s.cfg.CheckpointEvery > 0 {
		s.windowsSinceCkpt++
		if s.windowsSinceCkpt >= s.cfg.CheckpointEvery {
			s.windowsSinceCkpt = 0
			d.ckptDue = true
		}
	}
	return d, err
}

// Deliver is the draining push's work outside the commit lock, in this
// order before its ack returns: the snapshot-publish notification, then the
// checkpoint the drain scheduled, which takes over the snapshot's lease.
func (k *rootSink) Deliver(_ context.Context, d drained, committed int) int {
	s := (*Server)(k)
	if d.snap == nil {
		return committed
	}
	if fn := s.snapHook.Load(); fn != nil {
		(*fn)((*ingest.Snapshot)(d.snap).Announce(d.snap.Version - 1))
	}
	if d.ckptDue {
		// Captured and written here, with the commit lock already
		// released: the ack returns once the version is durable.
		s.saveState(s.captureState(d.snap, d.tally), d.snap)
	} else {
		d.snap.Release()
	}
	return committed
}

// captureState assembles the full persist.State around a captured cut. The
// auxiliary blocks (AdaSGD history, LD_global, profilers) snapshot
// themselves under their own locks, so they may trail the core by the few
// pushes that landed since the drain — they tune scaling heuristics, not
// model correctness (see persist.State).
func (s *Server) captureState(snap *ingest.Lease, tally ingest.Tally) *persist.State {
	served, dropped := s.core.TaskCounts()
	st := &persist.State{
		Arch:          s.cfg.Arch.String(),
		Epoch:         s.epoch,
		Version:       snap.Version,
		Params:        snap.Params(),
		GradientsIn:   tally.GradientsIn,
		LeafGradients: tally.LeafGradients,
		StaleSum:      tally.StaleSum,
		TasksServed:   served,
		TasksDropped:  dropped,
	}
	if a, ok := s.cfg.Algorithm.(*learning.AdaSGD); ok {
		ada := a.ExportState()
		st.AdaSGD = &ada
	}
	labels := s.core.Labels().ExportState()
	st.Labels = &labels
	if s.cfg.TimeProfiler != nil {
		st.TimeProfiler = s.cfg.TimeProfiler.ExportState()
	}
	if s.cfg.EnergyProfiler != nil {
		st.EnergyProfiler = s.cfg.EnergyProfiler.ExportState()
	}
	return st
}

// saveState persists one captured state and releases the lease on its
// Params; failures are counted (Stats.CheckpointErrors), never propagated
// onto the push path.
func (s *Server) saveState(st *persist.State, snap *ingest.Lease) {
	defer snap.Release()
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	_, _ = s.saveLocked(st)
}

// saveLocked is the one checkpoint write; callers hold ckptMu. A state
// older than what is already durable is dropped ("" and no error): written,
// it would be the newest checkpoint and roll a restore backwards.
func (s *Server) saveLocked(st *persist.State) (string, error) {
	if st.Version < s.ckptVersion {
		return "", nil
	}
	path, err := s.cfg.Checkpointer.Save(st)
	if err != nil {
		s.ckptErrors.Add(1)
		return "", err
	}
	s.ckptVersion = st.Version
	s.checkpoints.Add(1)
	return path, nil
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
	// push path, which releases the commit lock before taking ckptMu.
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	snap, tally := s.core.Cut()
	defer snap.Release()
	return s.saveLocked(s.captureState(snap, tally))
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
// a silently wrong model, and so does a cfg.BootEpoch equal to the
// checkpoint's Epoch, which would let the dead instance's cached versions
// pass for this one's.
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
	// A new incarnation: pushes and delta requests carrying the dead
	// instance's epoch must be detected, not patched onto the re-walked
	// version stream.
	if s.epoch == st.Epoch {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument,
			"server: BootEpoch %d is the checkpoint's own epoch; a restore boots a new incarnation", st.Epoch)
	}
	s.model.SetParams(st.Params)
	s.core.Restore(ingest.Tally{
		GradientsIn:   st.GradientsIn,
		LeafGradients: st.LeafGradients,
		StaleSum:      st.StaleSum,
	}, st.TasksServed, st.TasksDropped)
	s.restoredVersion = st.Version
	s.core.Boot(st.Version, s.epoch, s.model.ParamVector())
	if st.AdaSGD != nil {
		if a, ok := s.cfg.Algorithm.(*learning.AdaSGD); ok {
			a.RestoreState(*st.AdaSGD)
		}
	}
	if st.Labels != nil {
		if err := s.core.Labels().RestoreState(*st.Labels); err != nil {
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

// RestoredVersion returns the logical clock the server booted from: 0 for
// a fresh boot, the checkpoint's version after Restore.
func (s *Server) RestoredVersion() int { return s.restoredVersion }

// Epoch returns the server's incarnation name, Config.BootEpoch.
func (s *Server) Epoch() int64 { return s.epoch }

// Stats returns a diagnostic snapshot: the ingest core's (model clock,
// composed pipeline and admission chain with per-policy reject counters,
// push accounting) plus the root's checkpoint and incarnation state.
func (s *Server) Stats(ctx context.Context) (*protocol.Stats, error) {
	st, err := s.core.Stats(ctx)
	if err != nil {
		return nil, err
	}
	st.Checkpoints = int(s.checkpoints.Load())
	st.CheckpointErrors = int(s.ckptErrors.Load())
	st.RestoredVersion = s.restoredVersion
	return st, nil
}

// Model returns a copy of the current global parameters and their version,
// served lock-free from the published snapshot.
func (s *Server) Model() ([]float64, int) {
	snap := s.core.Lease()
	defer snap.Release()
	return slices.Clone(snap.Params()), snap.Version
}

// Evaluate computes test accuracy of the current global model. The provided
// scratch network must have the same architecture; it is overwritten.
func (s *Server) Evaluate(scratch *nn.Network, test []nn.Sample) float64 {
	params, _ := s.Model()
	scratch.SetParams(params)
	return scratch.Accuracy(test)
}
