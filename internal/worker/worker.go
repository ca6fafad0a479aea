// Package worker implements FLeet's client library: the counterpart of the
// Figure-2 protocol that runs on the mobile device. A worker requests a
// learning task, samples a mini-batch of the I-Prof-prescribed size from
// its local data, computes the gradient, and pushes it back together with
// the measured execution cost.
//
// The worker programs against service.Service, so it runs unchanged
// against an in-process *server.Server, a remote server behind *Client, or
// either of those wrapped in interceptors.
package worker

import (
	"context"
	"fmt"
	"math/rand"

	"fleet/internal/compress"
	"fleet/internal/data"
	"fleet/internal/device"
	"fleet/internal/iprof"
	"fleet/internal/nn"
	"fleet/internal/protocol"
	"fleet/internal/service"
)

// Config parameterizes a worker.
type Config struct {
	// ID identifies the worker.
	ID int
	// Arch must match the server's model architecture.
	Arch nn.Arch
	// Local is the worker's on-device dataset (never leaves the worker).
	Local []nn.Sample
	// Device simulates the phone executing the learning task. Optional:
	// without it the worker reports no cost measurements.
	Device *device.Device
	// Rng drives mini-batch sampling.
	Rng *rand.Rand
	// Compress names an uplink compression chain from the internal/compress
	// registry — "topk(8)", "topk(12),q8", "topk(64),f16" — built per
	// worker at New (chains are stateful: error feedback, quantizer RNG).
	// Pushes built through a chain carry the self-describing Encoding tag.
	// Empty sends dense gradients.
	Compress string
	// CompressRng drives the chain's stochastic rounding (required when
	// the chain includes q8 or f16). Give each worker its own stream so
	// quantization never perturbs the batch-sampling Rng.
	CompressRng *rand.Rand
	// GradientTransform, when non-nil, mutates each computed dense
	// gradient in place before compression and push. The load harness
	// injects Byzantine behaviors (sign-flip, scaled noise) through it;
	// it runs before error feedback, so a compressing attacker compresses
	// its own adversarial gradient.
	GradientTransform func(grad []float64)
	// FullPullOnly disables delta pulls: every task request downloads the
	// full parameter vector even when a model is cached. The load harness
	// uses it to mix delta-pulling and full-pulling fleets.
	FullPullOnly bool
}

// MaxResyncs bounds how many consecutive resync rounds one Step attempts
// when the server rejects a push as version_conflict — the worker computed on
// a model version the server no longer acknowledges (it restarted and
// restored an older checkpoint). Each resync drops the cached model, re-pulls
// full, recomputes and re-pushes.
const MaxResyncs = 3

// Worker is a FLeet client. Not safe for concurrent use; one goroutine per
// worker, as one phone runs one learning task at a time.
type Worker struct {
	cfg         Config
	net         *nn.Network
	labelCounts []int
	compressor  compress.Compressor
	// params/version/epoch cache the last pulled model so subsequent task
	// requests can advertise KnownVersion (and the server incarnation it
	// belongs to) and download a sparse delta instead of the full vector,
	// transparently falling back when the server is pre-delta, the version
	// is too old, or the server restarted onto a new incarnation. params
	// is owned by the worker — server responses are copied in, never
	// aliased.
	params  []float64
	version int
	epoch   int64
	cached  bool
	// Rejections counts tasks the controller refused.
	Rejections int
	// Tasks counts gradients successfully pushed.
	Tasks int
	// DeltaPulls counts task responses served as sparse deltas instead of
	// full parameter vectors (downlink savings diagnostics).
	DeltaPulls int
	// Resyncs counts version-conflict recoveries: pushes the server
	// rejected because it restarted onto an older model version, after
	// which this worker dropped its cache and re-pulled. A non-zero value
	// means the worker survived a server restart without operator action.
	Resyncs int
	// Refreshes counts server-pushed announcements absorbed into the
	// cached model (AbsorbAnnounce) — proactive updates the streaming
	// transport delivered before the worker's next pull asked for them.
	Refreshes int
}

// New builds a worker.
func New(cfg Config) (*Worker, error) {
	if len(cfg.Local) == 0 {
		return nil, fmt.Errorf("worker: empty local dataset")
	}
	if cfg.Rng == nil {
		return nil, fmt.Errorf("worker: Rng is required")
	}
	net := cfg.Arch.Build(cfg.Rng)
	w := &Worker{
		cfg:         cfg,
		net:         net,
		labelCounts: data.LabelCounts(cfg.Local, cfg.Arch.Classes()),
	}
	if cfg.Compress != "" {
		c, err := compress.Build(cfg.Compress, compress.Options{Length: net.ParamCount(), Rng: cfg.CompressRng})
		if err != nil {
			return nil, fmt.Errorf("worker: %w", err)
		}
		w.compressor = c
	}
	return w, nil
}

// Prepared is a computed-but-unsent gradient: the output of Compute and
// the input of Push. The load harness schedules the push at a simulated
// later time, so staleness emerges from other workers' pushes in between.
type Prepared struct {
	// Push is the wire message ready to send.
	Push *protocol.GradientPush
	// Exec is the simulated device execution result (zero without a
	// device): its latency drives the harness's virtual clock.
	Exec device.ExecResult
}

// Step performs one full protocol round against the service: request a
// task, compute the gradient, push it. It returns the ack (zero-valued
// when the task was rejected by the controller).
//
// Step is also where the resync protocol lives: when the push comes back
// as version_conflict — the server restarted and restored a checkpoint
// older than the model this worker computed on — Push has already dropped
// the cached model, so Step simply runs the round again (the re-pull is a
// full download against the restored server) up to MaxResyncs times. The
// recoveries are counted in Resyncs; a conflict persisting past the bound
// surfaces as the error it is.
func (w *Worker) Step(ctx context.Context, svc service.Service) (protocol.PushAck, error) {
	for attempt := 0; ; attempt++ {
		resp, err := w.Pull(ctx, svc)
		if err != nil {
			return protocol.PushAck{}, err
		}
		if !resp.Accepted {
			return protocol.PushAck{}, nil
		}
		ack, err := w.Push(ctx, svc, w.Compute(resp).Push)
		if err != nil && protocol.IsCode(err, protocol.CodeVersionConflict) && attempt < MaxResyncs {
			continue
		}
		return ack, err
	}
}

// Pull performs steps (1)–(4): request a task and, when accepted, absorb
// the served model (full or delta) into the cached parameter vector. The
// returned response reports acceptance; rejections are counted but not an
// error. Pull, Compute and Push are Step split at its protocol boundaries
// so an event-driven harness can interleave phases of different workers.
func (w *Worker) Pull(ctx context.Context, svc service.Service) (*protocol.TaskResponse, error) {
	req := protocol.TaskRequest{
		WorkerID:    w.cfg.ID,
		LabelCounts: w.labelCounts,
	}
	if w.cached && !w.cfg.FullPullOnly {
		req.KnownVersion = w.version
		req.KnownEpoch = w.epoch
		req.WantDelta = true
	}
	if w.cfg.Device != nil {
		req.DeviceModel = w.cfg.Device.Model.Name
		req.TimeFeatures = w.cfg.Device.Features()
		req.EnergyFeatures = w.cfg.Device.EnergyFeatures()
	}
	resp, err := svc.RequestTask(ctx, &req)
	if err != nil {
		return nil, fmt.Errorf("worker %d: task: %w", w.cfg.ID, err)
	}
	if resp == nil {
		// Guard against hand-rolled Service implementations returning
		// (nil, nil); the built-in chain machinery never does.
		return nil, fmt.Errorf("worker %d: task: service returned no response", w.cfg.ID)
	}
	if !resp.Accepted {
		w.Rejections++
		return resp, nil
	}
	if err := w.absorbModel(resp); err != nil {
		// The cached vector is now suspect (a delta may have half-applied,
		// or the response contradicted the cache). Drop it so the next pull
		// self-heals with a full download instead of re-requesting deltas
		// against bad state forever.
		w.cached = false
		return nil, fmt.Errorf("worker %d: task: %w", w.cfg.ID, err)
	}
	return resp, nil
}

// Compute executes the learning task for an accepted pull: sample a batch
// of the prescribed size, compute the gradient on the pulled model, apply
// the configured transform, compress, and simulate the device execution.
// It performs no service calls.
func (w *Worker) Compute(resp *protocol.TaskResponse) *Prepared {
	w.net.SetParams(w.params)
	batchSize := resp.BatchSize
	if batchSize < 1 {
		batchSize = 1
	}
	if batchSize > len(w.cfg.Local) {
		batchSize = len(w.cfg.Local)
	}
	batch := data.SampleBatch(w.cfg.Rng, w.cfg.Local, batchSize)
	grad, _ := w.net.Gradient(batch)
	if w.cfg.GradientTransform != nil {
		w.cfg.GradientTransform(grad)
	}

	push := &protocol.GradientPush{
		WorkerID:     w.cfg.ID,
		ModelVersion: resp.ModelVersion,
		ModelEpoch:   resp.ServerEpoch,
		BatchSize:    batchSize,
		LabelCounts:  data.LabelCounts(batch, w.cfg.Arch.Classes()),
	}
	if w.compressor != nil {
		push.SetForm(w.compressor.Compress(grad))
	} else {
		push.Gradient = grad
	}
	out := &Prepared{Push: push}
	if w.cfg.Device != nil {
		out.Exec = w.cfg.Device.Execute(batchSize)
		push.DeviceModel = w.cfg.Device.Model.Name
		push.CompTimeSec = out.Exec.LatencySec
		push.EnergyPct = out.Exec.EnergyPct
		push.TimeFeatures = iprof.FeaturesOf(w.cfg.Device, iprof.KindTime)
		push.EnergyFeatures = iprof.FeaturesOf(w.cfg.Device, iprof.KindEnergy)
	}
	return out
}

// Push sends a prepared gradient, step (5). A version_conflict rejection
// (the server restarted onto an older checkpoint, so this gradient claims
// a version "from the future") begins a resync: the cached model is
// dropped — the server's version stream restarted, so the cache is
// unpatchable — Resyncs is counted, and the error is returned for the
// caller (Step, or an event-driven harness) to schedule the fresh round.
func (w *Worker) Push(ctx context.Context, svc service.Service, push *protocol.GradientPush) (protocol.PushAck, error) {
	ack, err := svc.PushGradient(ctx, push)
	if err != nil {
		if protocol.IsCode(err, protocol.CodeVersionConflict) {
			w.cached = false
			w.Resyncs++
		}
		return protocol.PushAck{}, fmt.Errorf("worker %d: push: %w", w.cfg.ID, err)
	}
	if ack == nil {
		return protocol.PushAck{}, fmt.Errorf("worker %d: push: service returned no ack", w.cfg.ID)
	}
	w.Tasks++
	return *ack, nil
}

// ResetModelCache drops the cached model, forcing the next pull to download
// the full parameter vector — what happens when a churned worker rejoins
// after its app restarted.
func (w *Worker) ResetModelCache() { w.cached = false }

// CachedVersion reports the model clock of the cached parameter vector;
// ok is false when no model is cached (never pulled, cache reset, or
// dropped by a resync).
func (w *Worker) CachedVersion() (version int, epoch int64, ok bool) {
	return w.version, w.epoch, w.cached
}

// AbsorbAnnounce applies one server-pushed model announcement to the
// cached parameter vector. The return value tells a caller walking an
// announce chain whether the chain can continue: true when the delta
// applied, and also when the announcement is stale — same incarnation at
// or below the cached version, which happens every round because the
// chain accumulates while the worker's own pull advances the cache past
// its head. Announcements are advisory, so everything else is a quiet
// false rather than an error: no cached model, delta pulls disabled, a
// delta-less announce, a different server incarnation, or a gap ahead of
// the cache (the worker missed an announce; its next pull recovers via
// the ordinary delta/full path). A patch failure invalidates the cache
// exactly like a poisoned delta pull would.
func (w *Worker) AbsorbAnnounce(ann protocol.ModelAnnounce) bool {
	if w.cfg.FullPullOnly || !w.cached {
		return false
	}
	if ann.ServerEpoch == w.epoch && ann.ModelVersion <= w.version {
		return true // stale: the cache already covers this version
	}
	if !ann.Follows(w.version, w.epoch) {
		return false
	}
	if err := ann.Delta.Patch(w.params); err != nil {
		w.cached = false
		return false
	}
	w.version = ann.ModelVersion
	w.Refreshes++
	return true
}

// AbsorbAnnounces folds a session's collected announces into the cached
// model before the next pull, so the pull advertises the freshest version
// the worker can prove it holds. The chain is consecutive by construction:
// the first inapplicable announce (gap, epoch change, cold cache) means the
// rest cannot apply either, and the pull's delta/full path recovers.
func (w *Worker) AbsorbAnnounces(anns []protocol.ModelAnnounce) {
	for _, ann := range anns {
		if !w.AbsorbAnnounce(ann) {
			return
		}
	}
}

// absorbModel updates the worker's cached parameter vector from an
// accepted task response: either patching the changed coordinates from a
// sparse delta (bit-exact) or copying the full vector. Full responses are
// copied, never aliased — over HTTP the slice is freshly decoded anyway,
// but in-process servers hand out their immutable snapshot storage.
func (w *Worker) absorbModel(resp *protocol.TaskResponse) error {
	if resp.ParamsDelta != nil {
		if !w.cached {
			return fmt.Errorf("delta response without a cached model")
		}
		if resp.ServerEpoch != w.epoch {
			// Belt and braces: a correct server never deltas across its
			// own restore, because the cached version number names the
			// dead incarnation's parameters.
			return fmt.Errorf("delta from server incarnation %d, cached model from %d", resp.ServerEpoch, w.epoch)
		}
		if resp.DeltaBase != w.version {
			return fmt.Errorf("delta from version %d, cached model at %d", resp.DeltaBase, w.version)
		}
		if err := resp.ParamsDelta.Patch(w.params); err != nil {
			return err
		}
		w.version = resp.ModelVersion
		w.DeltaPulls++
		return nil
	}
	if len(resp.Params) != w.net.ParamCount() {
		return fmt.Errorf("served %d params, model has %d", len(resp.Params), w.net.ParamCount())
	}
	if w.params == nil {
		w.params = make([]float64, len(resp.Params))
	}
	copy(w.params, resp.Params)
	w.version = resp.ModelVersion
	w.epoch = resp.ServerEpoch
	w.cached = true
	return nil
}
