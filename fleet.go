// Package fleet is an open-source reproduction of "FLeet: Online Federated
// Learning via Staleness Awareness and Performance Prediction"
// (Damaskinos et al., MIDDLEWARE 2020): a middleware for Online Federated
// Learning that combines
//
//   - AdaSGD — an asynchronous, staleness-aware aggregation rule that
//     dampens stale gradients exponentially and boosts gradients carrying
//     novel label information, and
//   - I-Prof — a lightweight profiler that predicts, per device, the
//     largest mini-batch size fitting a computation-time or energy SLO.
//
// The package exposes three layers:
//
//  1. The middleware itself: NewServer/NewWorker speak the paper's
//     learning-task protocol (Figure 2) in-process or over HTTP.
//  2. The evaluation driver: RunAsync reproduces the paper's controlled-
//     staleness experiments by driving NewServer's server with gradients
//     computed on past snapshots; the device simulator stands in for the
//     heterogeneous Android fleet.
//  3. The experiment drivers: RunExperiment regenerates every table and
//     figure of the paper's evaluation.
//
// See the examples/ directory for runnable end-to-end programs and
// README.md for the quickstart, the interceptor architecture and the wire
// protocol.
package fleet

import (
	"context"
	"log"
	"math/rand"
	"net/http"
	"time"

	"fleet/internal/aggtree"
	"fleet/internal/compress"
	"fleet/internal/core"
	"fleet/internal/data"
	"fleet/internal/device"
	"fleet/internal/dp"
	"fleet/internal/experiments"
	"fleet/internal/hashtag"
	"fleet/internal/iprof"
	"fleet/internal/learning"
	"fleet/internal/loadgen"
	"fleet/internal/metrics"
	"fleet/internal/nn"
	"fleet/internal/node"
	"fleet/internal/persist"
	"fleet/internal/pipeline"
	"fleet/internal/protocol"
	"fleet/internal/robust"
	"fleet/internal/sched"
	"fleet/internal/server"
	"fleet/internal/service"
	"fleet/internal/stream"
	"fleet/internal/tenant"
	"fleet/internal/worker"
)

// ---------------------------------------------------------------------------
// Middleware: service contract, server and worker (Figure 2).

// Service is the transport-agnostic serving contract: RequestTask,
// PushGradient and Stats, context-aware and symmetric across transports. A
// *Server implements it in-process; a *Client implements it over HTTP; an
// Interceptor chain wraps either without the callers noticing.
type Service = service.Service

// Interceptor decorates a Service with one cross-cutting concern.
type Interceptor = service.Interceptor

// ServiceCallInfo describes one call to an AroundService hook.
type ServiceCallInfo = service.CallInfo

// Chain wraps svc in interceptors; the first becomes the outermost layer:
//
//	svc := fleet.Chain(srv, fleet.Recovery(), fleet.Logging(nil), fleet.RateLimit(50, 10))
func Chain(svc Service, interceptors ...Interceptor) Service {
	return service.Chain(svc, interceptors...)
}

// Logging returns an interceptor that logs every call with method, worker,
// latency and outcome. A nil logger uses log.Default().
func Logging(logger *log.Logger) Interceptor { return service.Logging(logger) }

// Metrics returns an interceptor recording per-method call counters and
// latencies into the given *CallMetrics sink.
func Metrics(m *CallMetrics) Interceptor { return service.Metrics(m) }

// Recovery returns an interceptor converting panics into structured
// internal errors.
func Recovery() Interceptor { return service.Recovery() }

// RateLimit returns an interceptor enforcing a per-worker token bucket
// (req/s, burst); perSec <= 0 disables limiting.
func RateLimit(perSec float64, burst int) Interceptor { return service.RateLimit(perSec, burst) }

// Deadline returns an interceptor bounding every call to d.
func Deadline(d time.Duration) Interceptor { return service.Deadline(d) }

// AroundService builds a custom interceptor from a hook that runs around
// every method uniformly — the extension point future concerns (batching,
// caching, auth) attach to.
func AroundService(hook func(ctx context.Context, info ServiceCallInfo, next func(context.Context) (interface{}, error)) (interface{}, error)) Interceptor {
	return service.Around(hook)
}

// CallMetrics is the metrics sink of the Metrics interceptor.
type CallMetrics = service.CallMetrics

// MethodStats is one method's snapshot inside CallMetrics.
type MethodStats = service.MethodStats

// NewCallMetrics builds an empty metrics sink.
func NewCallMetrics() *CallMetrics { return service.NewCallMetrics() }

// Server is the FLeet parameter server hosting the global model, AdaSGD,
// I-Prof and the controller.
type Server = server.Server

// ServerConfig parameterizes a Server.
type ServerConfig = server.Config

// NewServer builds a parameter server.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// NewHandler exposes a Service over the versioned HTTP wire protocol
// (/v1/task, /v1/gradient, /v1/stats).
func NewHandler(svc Service) http.Handler { return server.NewHandler(svc) }

// ---------------------------------------------------------------------------
// Crash safety (internal/persist): the server survives hard restarts.

// Checkpointer writes versioned, atomic (temp+rename), checksummed
// checkpoints of a server's learned state — model+clock, AdaSGD staleness
// history, LD_global, I-Prof models — into one directory, pruning old
// files. Wire one into ServerConfig.Checkpointer (cadence
// ServerConfig.CheckpointEvery, in aggregation windows) and call
// (*Server).Checkpoint at graceful shutdown.
type Checkpointer = persist.Checkpointer

// ServerState is the deserialized content of one checkpoint.
type ServerState = persist.State

// ErrNoCheckpoint reports an empty checkpoint directory (a first boot);
// CheckpointCorruptError a checkpoint that exists but cannot be trusted.
// Every load failure is one of the two — restores never silently boot
// fresh.
var ErrNoCheckpoint = persist.ErrNoCheckpoint

// CheckpointCorruptError is a truncated, bit-flipped or undecodable
// checkpoint file.
type CheckpointCorruptError = persist.CorruptError

// NewCheckpointer opens (creating if needed) a checkpoint directory,
// retaining the newest keep files (keep <= 0 means the default, 3).
func NewCheckpointer(dir string, keep int) (*Checkpointer, error) {
	return persist.NewCheckpointer(dir, keep)
}

// RestoreServer boots a server from checkpointed state as a new
// incarnation: workers holding models from the dead instance resync on
// their own (their pushes come back version_conflict, they re-pull full).
func RestoreServer(cfg ServerConfig, st *ServerState) (*Server, error) {
	return server.Restore(cfg, st)
}

// RestoreServerLatest boots from the newest valid checkpoint in dir.
func RestoreServerLatest(cfg ServerConfig, dir string) (*Server, error) {
	return server.RestoreLatest(cfg, dir)
}

// LoadCheckpoint reads and verifies one checkpoint file.
func LoadCheckpoint(path string) (*ServerState, error) { return persist.Load(path) }

// BootNonce persists a boot counter in dir and returns a deterministic
// incarnation-epoch nonce for ServerConfig.BootEpoch: 0 on the very first
// boot, a seed-derived nonzero value on every later one — so a server
// restarted without (or refusing) a checkpoint still changes epoch and
// workers caching the dead incarnation resync instead of colliding.
func BootNonce(dir string, seed int64) (int64, error) { return persist.BootNonce(dir, seed) }

// Worker is the client library executing learning tasks on (simulated)
// mobile devices.
type Worker = worker.Worker

// WorkerConfig parameterizes a Worker.
type WorkerConfig = worker.Config

// NewWorker builds a worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) { return worker.New(cfg) }

// Client adapts a remote FLeet server to the Service interface over HTTP
// (versioned routes, negotiated codec).
type Client = worker.Client

// Codec serializes protocol messages for one wire representation.
type Codec = protocol.Codec

// CodecGobGzip returns the gob + gzip wire codec — what an unset
// Client.Codec means today (protocol.Default).
func CodecGobGzip() Codec { return protocol.GobGzip }

// CodecJSON returns the interoperable, curl-friendly wire codec.
func CodecJSON() Codec { return protocol.JSON }

// CodecFlat returns the flat binary wire codec: fixed header,
// little-endian arrays, pooled buffers and zero-copy sparse decode — the
// leanest representation for gradient traffic.
func CodecFlat() Codec { return protocol.Flat }

// ---------------------------------------------------------------------------
// Uplink compression (internal/compress): registry-built chains of wire
// stages — "topk(k)" sparsification with error feedback, "q8"/"f16"
// quantization with unbiased stochastic rounding.

// Compressor turns a dense gradient into its wire form. Build one from a
// spec with BuildCompressor; workers apply it per computed gradient
// (WorkerConfig.Compress builds one internally).
type Compressor = compress.Compressor

// CompressorStage is one link of a compression chain; register custom
// stages with RegisterCompressor.
type CompressorStage = compress.Stage

// CompressorOptions parameterizes BuildCompressor: the model's parameter
// count and the RNG stochastic quantizers draw from.
type CompressorOptions = compress.Options

// GradientForm is a compressor's output: dense, top-k sparse, or a
// quantized sparse variant, tagged with its wire encoding name.
type GradientForm = compress.Form

// BuildCompressor composes a compression chain from a spec like
// "topk(16)", "topk(16),q8" or "topk(16),f16". The empty spec returns
// (nil, nil): no compression.
func BuildCompressor(specStr string, opts CompressorOptions) (Compressor, error) {
	return compress.Build(specStr, opts)
}

// RegisterCompressor adds a named compression stage to the registry, making
// it usable in every spec-driven surface (WorkerConfig.Compress,
// fleet-worker -compress, loadgen CompressSpec). It panics on duplicates,
// like the pipeline and admission registries.
func RegisterCompressor(name string, build func(args []float64, opts CompressorOptions) (CompressorStage, error)) {
	compress.RegisterCompressor(name, build)
}

// Compressors lists the registered compression stage names, sorted.
func Compressors() []string { return compress.Compressors() }

// APIError is the structured error of the wire protocol; errors.As
// recovers it from any Service call, local or remote.
type APIError = protocol.Error

// Protocol message types (Figure 2).
type (
	// TaskRequest is the worker's learning-task request.
	TaskRequest = protocol.TaskRequest
	// TaskResponse carries the model and the I-Prof-bounded batch size.
	TaskResponse = protocol.TaskResponse
	// GradientPush is the worker's result upload.
	GradientPush = protocol.GradientPush
	// PushAck acknowledges a gradient with its staleness and applied scale.
	PushAck = protocol.PushAck
	// Stats is the server's diagnostic snapshot.
	Stats = protocol.Stats
	// ModelAnnounce is the server-pushed model-update notification of the
	// streaming transport: new version and epoch, plus the sparse delta
	// from the previous version when it is compact enough to ship.
	ModelAnnounce = protocol.ModelAnnounce
)

// WireCounter tallies transport payload bytes (uplink/downlink); plug one
// into Client.Wire or StreamClient.Wire to measure wire cost.
type WireCounter = protocol.WireCounter

// ---------------------------------------------------------------------------
// Streaming transport (internal/stream): one persistent, multiplexed
// session per worker with server-pushed model announces.

// StreamServer serves the persistent-session transport: length-prefixed
// frames over TCP, per-frame correlation IDs, heartbeats, and drain-time
// ModelAnnounce broadcasts to every subscribed session. Run it alongside
// (or instead of) the HTTP handler; wire announces with
// (*Server).OnSnapshot(streamServer.Broadcast).
type StreamServer = stream.Server

// StreamOptions tunes a StreamServer (idle timeout, logging).
type StreamOptions = stream.Options

// NewStreamServer builds a stream-transport server around any Service.
func NewStreamServer(svc Service, opts StreamOptions) *StreamServer {
	return stream.NewServer(svc, opts)
}

// StreamClient is the worker-side persistent session: it implements
// Service over one long-lived connection, redials transparently after a
// server drain, and collects server-pushed announces for
// (*Worker).AbsorbAnnounce.
type StreamClient = stream.Client

// ---------------------------------------------------------------------------
// Hierarchical aggregation tier (internal/aggtree, cmd/fleet-agg).

// AggNode is one edge aggregator of the hierarchical aggregation tier: it
// implements Service for leaf workers (local admission, model served from
// a cached upstream snapshot), fans every K leaf gradients into ONE
// aggregated upstream push weighted by its contributing-gradient count
// (the Equation-3 K-sum is preserved end-to-end — the mean path is
// bit-for-bit equivalent to a flat topology), and relays upstream model
// refreshes downstream as sparse-delta announces. Root restarts cascade
// through the tier as ordinary version-conflict resyncs.
type AggNode = aggtree.Node

// AggConfig parameterizes an AggNode.
type AggConfig = aggtree.Config

// NewAggNode builds an edge aggregator. The upstream model is pulled
// lazily on first use; call (*AggNode).Sync to fail fast at boot.
func NewAggNode(cfg AggConfig) (*AggNode, error) { return aggtree.New(cfg) }

// ---------------------------------------------------------------------------
// Multi-tenant fleets (internal/tenant).

// TenantConfig declares one tenant's isolated serving unit — its own model,
// update pipeline, admission chain, worker quota, DP epsilon budget and
// checkpoint subdirectory, behind per-unit enforcement (HMAC worker
// authentication, quota, budget) on both transports; every zero field
// except Name keeps the single-fleet server's defaults. A deployment's
// tenants are declared on NodeSpec.Tenants and compiled by NewNode.
type TenantConfig = tenant.Config

// TenantStatsBlock is the per-tenant attribution stamped into Stats
// responses: enrolled workers, auth/quota/budget reject counters and the
// epsilon ledger.
type TenantStatsBlock = protocol.TenantStats

// ParseTenantSpec parses the repeatable -tenant flag form
// "name:arch:stages:aggregator:admission[:key=value...]".
func ParseTenantSpec(s string) (TenantConfig, error) { return tenant.ParseSpec(s) }

// MintTenantToken mints the HMAC-SHA256 bearer token authenticating
// (tenant, worker) against the tenant's shared secret.
func MintTenantToken(secret []byte, tenantName string, workerID int) string {
	return tenant.MintToken(secret, tenantName, workerID)
}

// VerifyTenantToken validates a bearer token and returns the worker
// identity it was minted for.
func VerifyTenantToken(secret []byte, tenantName, token string) (int, error) {
	return tenant.VerifyToken(secret, tenantName, token)
}

// ---------------------------------------------------------------------------
// Node runtime (internal/node): declarative deployments.

// NodeSpec declares one FLeet node — root parameter server or edge
// aggregator — as data: model, pipeline, admission chain, checkpoint
// policy, transport bindings, tenants. NewNode compiles it through the
// same spec grammar and registries as the fleet-server/fleet-agg flags
// (which are thin translators onto this type).
type NodeSpec = node.Spec

// NodeRuntime owns one compiled node: the assembled service, both
// listeners, the checkpointer, and the canonical lifecycle
// Start → Serve → Drain → Checkpoint → Flush → Close. The drain ordering
// (stream goaway first, then HTTP shutdown, then window flush, then
// upstream close) is defined here once for every role.
type NodeRuntime = node.Runtime

// NodeState is a runtime's position in the canonical lifecycle.
type NodeState = node.State

// Node lifecycle and role constants.
const (
	// NodeRoot is the parameter-server role.
	NodeRoot = node.RoleRoot
	// NodeEdge is the hierarchical-aggregation-tier role.
	NodeEdge = node.RoleEdge
)

// NodeCheckpointSpec declares a node's durability policy (directory,
// cadence, retention, recover posture, boot-nonce directory).
type NodeCheckpointSpec = node.CheckpointSpec

// NodeBindSpec declares a node's listeners (transport, addresses, drain
// deadline).
type NodeBindSpec = node.BindSpec

// NodeUpstreamSpec declares an edge node's upstream (target, transport,
// or an in-process Service override).
type NodeUpstreamSpec = node.UpstreamSpec

// NewNode compiles a NodeSpec into a NodeRuntime. Compilation is a pure
// function of the Spec, so rebuilding a killed node from the same Spec
// reproduces it exactly — the property restart harnesses and hot
// standbys lean on.
func NewNode(spec NodeSpec) (*NodeRuntime, error) { return node.FromSpec(spec) }

// ---------------------------------------------------------------------------
// Learning algorithms (§2.3).

// Algorithm scales gradients in the server update (Equation 3).
type Algorithm = learning.Algorithm

// GradientMeta is the per-gradient metadata an Algorithm sees.
type GradientMeta = learning.GradientMeta

// AdaSGD is the paper's staleness-aware, similarity-boosting update rule.
type AdaSGD = learning.AdaSGD

// AdaSGDConfig parameterizes AdaSGD.
type AdaSGDConfig = learning.AdaSGDConfig

// NewAdaSGD builds an AdaSGD instance.
func NewAdaSGD(cfg AdaSGDConfig) *AdaSGD { return learning.NewAdaSGD(cfg) }

// Baseline algorithms used throughout the paper's evaluation.
type (
	// DynSGD is the inverse-dampening staleness-aware baseline.
	DynSGD = learning.DynSGD
	// FedAvg is the staleness-unaware baseline.
	FedAvg = learning.FedAvg
	// SSGD is synchronous (staleness-free) SGD.
	SSGD = learning.SSGD
)

// Bhattacharyya returns the Bhattacharyya coefficient between two discrete
// distributions (raw counts accepted), the similarity measure of §2.3.
func Bhattacharyya(p, q []float64) float64 { return learning.Bhattacharyya(p, q) }

// RobustAggregator combines the K gradients of an aggregation window with
// a (possibly Byzantine-resilient) rule — the §4 "pluggable robustness"
// hook. Aggregate returns an error (never panics) on empty or ragged
// windows.
type RobustAggregator = robust.Aggregator

// Byzantine-resilient aggregation rules for RetainedWindow.
type (
	// MeanAggregator is plain averaging (not resilient).
	MeanAggregator = robust.Mean
	// MedianAggregator is the per-coordinate median.
	MedianAggregator = robust.CoordinateMedian
	// TrimmedMeanAggregator drops the Trim extremes per coordinate.
	TrimmedMeanAggregator = robust.TrimmedMean
	// KrumAggregator selects the most central gradient (Blanchard et al.).
	KrumAggregator = robust.Krum
)

// ---------------------------------------------------------------------------
// Update pipeline (§4 pluggability on the live serving path).

// Pipeline is the server's composable update pipeline: per-gradient Stages
// (staleness scaling, DP perturbation, filters) feeding one
// WindowAggregator that folds each K-window into the model. Set it on
// ServerConfig.Pipeline; a nil config builds the legacy-equivalent default
// (staleness scaling in front of a sharded mean). A pipeline is stateful
// (its aggregator holds window/shard buffers): build one per server.
type Pipeline = pipeline.Pipeline

// Stage is one per-gradient transform of the update pipeline.
type Stage = pipeline.Stage

// WindowAggregator owns the K-window of Equation 3 inside a Pipeline.
type WindowAggregator = pipeline.WindowAggregator

// PipelineGradient is the in-flight gradient custom Stages transform.
type PipelineGradient = pipeline.Gradient

// PipelineOptions carries the dependencies spec-built pipelines draw on
// (the algorithm for "staleness", shard count for "mean", DP noise seed).
type PipelineOptions = pipeline.BuildOptions

// NewPipeline composes stages (run in order) in front of agg.
func NewPipeline(agg WindowAggregator, stages ...Stage) (*Pipeline, error) {
	return pipeline.New(agg, stages...)
}

// BuildPipeline composes a pipeline from registry specs, e.g.
//
//	fleet.BuildPipeline("staleness,norm-filter(100)", "krum(1)",
//	    fleet.PipelineOptions{Algorithm: algo})
func BuildPipeline(stagesSpec, aggSpec string, opts PipelineOptions) (*Pipeline, error) {
	return pipeline.Build(stagesSpec, aggSpec, opts)
}

// StalenessStage wraps a learning Algorithm as the pipeline's scaling
// stage (multiplies each gradient's Equation-3 factor).
func StalenessStage(algo Algorithm) (Stage, error) { return pipeline.NewStalenessScale(algo) }

// DPStage clips and noises each gradient (dp.Perturb) with a generator per
// push derived from (seed, push ordinal), so concurrent pushes stay safe
// and parallel and a serialized push sequence replays bit-for-bit.
func DPStage(cfg DPConfig, seed int64) (Stage, error) { return pipeline.NewDP(cfg, seed) }

// NormFilterStage rejects gradients whose L2 norm exceeds max.
func NormFilterStage(max float64) (Stage, error) { return pipeline.NewNormFilter(max) }

// MeanWindow is the default aggregator: the sharded K-sum fast path.
func MeanWindow(shards int) WindowAggregator { return pipeline.NewMeanWindow(shards) }

// RetainedWindow buffers the K scaled gradients of each window so a
// robust rule (MedianAggregator, TrimmedMeanAggregator, KrumAggregator)
// sees all members before emitting one direction. The direction is scaled
// by the window size, so retained rules keep the K-sum magnitude of
// Equation 3 and swap in for MeanWindow at a fixed learning rate.
func RetainedWindow(rule RobustAggregator) (WindowAggregator, error) {
	return pipeline.NewRetained(rule)
}

// RegisterPipelineStage adds a named stage constructor to the spec
// registry used by BuildPipeline and the fleet-server -stages flag.
func RegisterPipelineStage(name string, ctor pipeline.StageCtor) {
	pipeline.RegisterStage(name, ctor)
}

// RegisterWindowAggregator adds a named aggregator constructor to the spec
// registry used by BuildPipeline and the fleet-server -aggregator flag.
func RegisterWindowAggregator(name string, ctor pipeline.AggregatorCtor) {
	pipeline.RegisterAggregator(name, ctor)
}

// PipelineStages and WindowAggregators list the registered spec names.
func PipelineStages() []string    { return pipeline.Stages() }
func WindowAggregators() []string { return pipeline.Aggregators() }

// ---------------------------------------------------------------------------
// Admission & scheduling (the downlink half of Figure 2, pluggable).

// AdmissionPolicy decides whether (and at what mini-batch size) a task
// request is admitted — steps (1)–(4) of Figure 2 as a composable module.
// Set a chain of them on ServerConfig.Admission; nil admits every task at
// the default batch size. (fleet-server's -time-slo/-energy-slo/-min-batch/
// -max-similarity flags are NodeSpec knobs that name such a chain.)
type AdmissionPolicy = sched.AdmissionPolicy

// AdmissionRequest is the in-flight admission context a policy evaluates:
// the wire request plus the threaded batch size and the precomputed label
// similarity.
type AdmissionRequest = sched.TaskRequest

// AdmissionDecision is one policy's verdict (accept with a batch size, or
// reject with a reason attributed to the policy).
type AdmissionDecision = sched.Decision

// AdmissionChain evaluates policies in order, threading the accepted batch
// size through; the first rejection wins.
type AdmissionChain = sched.Chain

// AdmissionOptions carries the dependencies spec-built admission chains
// draw on (the I-Prof profilers behind "iprof-time"/"iprof-energy").
type AdmissionOptions = sched.BuildOptions

// NewAdmissionChain composes policies in evaluation order.
func NewAdmissionChain(policies ...AdmissionPolicy) *AdmissionChain {
	return sched.NewChain(policies...)
}

// BuildAdmission composes an admission chain from registry specs, e.g.
//
//	fleet.BuildAdmission("iprof-time(3),min-batch(5),similarity(0.9)",
//	    fleet.AdmissionOptions{TimeProfiler: prof})
func BuildAdmission(chainSpec string, opts AdmissionOptions) (*AdmissionChain, error) {
	return sched.Build(chainSpec, opts)
}

// IProfTimePolicy prescribes the I-Prof computation-time batch size (the
// prediction replaces the default, and may exceed it). A nil profiler
// makes it a pass-through.
func IProfTimePolicy(prof *Profiler, sloSec float64) AdmissionPolicy {
	if prof == nil {
		return sched.IProfTime(nil, sloSec)
	}
	return sched.IProfTime(prof, sloSec)
}

// IProfEnergyPolicy lowers the batch to the I-Prof energy prediction when
// smaller (both SLOs must hold). A nil profiler makes it a pass-through.
func IProfEnergyPolicy(prof *Profiler, sloPct float64) AdmissionPolicy {
	if prof == nil {
		return sched.IProfEnergy(nil, sloPct)
	}
	return sched.IProfEnergy(prof, sloPct)
}

// MinBatchPolicy rejects tasks whose prescribed batch fell below n (§2.2).
func MinBatchPolicy(n int) AdmissionPolicy { return sched.MinBatch(n) }

// SimilarityPolicy rejects tasks whose label similarity to LD_global
// exceeds max (§2.3's redundancy screen).
func SimilarityPolicy(max float64) AdmissionPolicy { return sched.Similarity(max) }

// PerWorkerQuotaPolicy admits at most n tasks per worker per window — the
// admission-level complement of the RateLimit interceptor. Stateful: build
// one per server.
func PerWorkerQuotaPolicy(n int, window time.Duration) AdmissionPolicy {
	return sched.PerWorkerQuota(n, window)
}

// RegisterAdmissionPolicy adds a named policy constructor to the spec
// registry used by BuildAdmission and the fleet-server -admission flag.
func RegisterAdmissionPolicy(name string, ctor sched.PolicyCtor) {
	sched.RegisterPolicy(name, ctor)
}

// AdmissionPolicies lists the registered admission-policy spec names.
func AdmissionPolicies() []string { return sched.Policies() }

// ---------------------------------------------------------------------------
// Profiler (§2.2).

// Profiler is I-Prof: cold-start OLS plus per-device-model online
// Passive-Aggressive predictors.
type Profiler = iprof.IProf

// ProfilerConfig parameterizes I-Prof.
type ProfilerConfig = iprof.Config

// ProfilerObservation is one (device features → cost slope) data point.
type ProfilerObservation = iprof.Observation

// NewProfiler builds an I-Prof instance pre-trained on offline
// observations.
func NewProfiler(cfg ProfilerConfig, pretrain []ProfilerObservation) (*Profiler, error) {
	return iprof.New(cfg, pretrain)
}

// Profiler kinds.
const (
	// KindTime targets a computation-time SLO.
	KindTime = iprof.KindTime
	// KindEnergy targets an energy SLO.
	KindEnergy = iprof.KindEnergy
)

// CollectProfilerData reproduces the paper's offline pre-training sweep on
// a set of simulated training devices.
func CollectProfilerData(rng *rand.Rand, models []DeviceModel, kind iprof.Kind, slo float64) iprof.PretrainingData {
	return iprof.Collect(rng, models, kind, slo)
}

// ---------------------------------------------------------------------------
// Device simulation.

// Device is a simulated mobile phone with thermal and memory state.
type Device = device.Device

// DeviceModel is a phone model's static characteristics.
type DeviceModel = device.Model

// NewDevice instantiates a device of the given model.
func NewDevice(model DeviceModel, rng *rand.Rand) *Device { return device.New(model, rng) }

// DeviceCatalogue returns the simulated phone-model catalogue (the paper's
// 40-device population).
func DeviceCatalogue() []DeviceModel { return device.Catalogue() }

// DeviceByName looks a phone model up in the catalogue.
func DeviceByName(name string) (DeviceModel, error) { return device.ModelByName(name) }

// ---------------------------------------------------------------------------
// Models and data.

// Arch identifies a neural-network architecture (the paper's Table-1 CNNs
// plus fast variants).
type Arch = nn.Arch

// Architectures.
const (
	// ArchMNIST is the Table-1 MNIST CNN.
	ArchMNIST = nn.ArchMNIST
	// ArchEMNIST is the Table-1 E-MNIST CNN.
	ArchEMNIST = nn.ArchEMNIST
	// ArchCIFAR100 is the Table-1 CIFAR-100 CNN.
	ArchCIFAR100 = nn.ArchCIFAR100
	// ArchTinyMNIST is a fast 14×14 CNN for tests and demos.
	ArchTinyMNIST = nn.ArchTinyMNIST
	// ArchSoftmaxMNIST is softmax regression on 14×14 inputs.
	ArchSoftmaxMNIST = nn.ArchSoftmaxMNIST
	// ArchTinyCIFAR is a fast 16×16×3 CNN.
	ArchTinyCIFAR = nn.ArchTinyCIFAR
)

// Sample is one labelled training example.
type Sample = nn.Sample

// Dataset is a labelled train/test split.
type Dataset = data.Dataset

// SyntheticMNIST builds the synthetic 10-class 28×28 dataset standing in
// for MNIST (scale 1 ≈ 7,000 examples).
func SyntheticMNIST(seed int64, scale float64) *Dataset { return data.SyntheticMNIST(seed, scale) }

// SyntheticEMNIST builds the synthetic 62-class dataset standing in for
// E-MNIST.
func SyntheticEMNIST(seed int64, scale float64) *Dataset { return data.SyntheticEMNIST(seed, scale) }

// SyntheticCIFAR100 builds the synthetic 100-class 32×32×3 dataset.
func SyntheticCIFAR100(seed int64, scale float64) *Dataset {
	return data.SyntheticCIFAR100(seed, scale)
}

// TinyMNIST builds the fast 14×14 dataset used by examples and tests.
func TinyMNIST(seed int64, trainPerClass, testPerClass int) *Dataset {
	return data.TinyMNIST(seed, trainPerClass, testPerClass)
}

// PartitionIID splits samples into random equal local datasets.
func PartitionIID(rng *rand.Rand, samples []Sample, numUsers int) [][]Sample {
	return data.PartitionIID(rng, samples, numUsers)
}

// PartitionNonIID applies the paper's sort-by-label shard scheme.
func PartitionNonIID(rng *rand.Rand, samples []Sample, numUsers, shardsPerUser int) [][]Sample {
	return data.PartitionNonIID(rng, samples, numUsers, shardsPerUser)
}

// ---------------------------------------------------------------------------
// Evaluation driver (§3.2-style controlled-staleness experiments on the
// server NewServer builds).

// AsyncConfig parameterizes an asynchronous training run.
type AsyncConfig = core.AsyncConfig

// AsyncResult is the output of an asynchronous training run.
type AsyncResult = core.AsyncResult

// Controller is the percentile task-admission controller of §3.5 (size and
// similarity thresholds relative to the tasks seen so far), an
// AdmissionPolicy.
type Controller = sched.Controller

// StalenessSampler draws per-task staleness.
type StalenessSampler = core.StalenessSampler

// RunAsync executes one asynchronous training run.
func RunAsync(cfg AsyncConfig, users [][]Sample, test []Sample) *AsyncResult {
	return core.RunAsync(cfg, users, test)
}

// GaussianStaleness returns the paper's controlled staleness sampler
// (D1 = N(6,2), D2 = N(12,4)).
func GaussianStaleness(mu, sigma float64) StalenessSampler {
	return core.GaussianStaleness(mu, sigma)
}

// TraceConfig parameterizes the event-driven simulation where staleness
// emerges from device computation, network latency and think time.
type TraceConfig = core.TraceConfig

// TraceResult is the output of an event-driven run.
type TraceResult = core.TraceResult

// RunTrace executes an event-driven training run.
func RunTrace(cfg TraceConfig, users [][]Sample, test []Sample) *TraceResult {
	return core.RunTrace(cfg, users, test)
}

// DPConfig enables differentially private gradient perturbation (clipping
// plus Gaussian noise).
type DPConfig = dp.Config

// DPEpsilon converts (q, σ, T, δ) into ε via the moments accountant.
func DPEpsilon(q, sigma float64, steps int, delta float64) (float64, error) {
	return dp.Epsilon(q, sigma, steps, delta)
}

// DPSigmaFor inverts DPEpsilon: the noise multiplier achieving a target ε.
func DPSigmaFor(q, targetEps float64, steps int, delta float64) (float64, error) {
	return dp.SigmaFor(q, targetEps, steps, delta)
}

// ---------------------------------------------------------------------------
// Online-FL workload (§3.1).

// TweetStream is the synthetic temporal tweet workload.
type TweetStream = hashtag.Stream

// TweetStreamConfig parameterizes the generator.
type TweetStreamConfig = hashtag.StreamConfig

// DefaultTweetStreamConfig returns the Figure-6 configuration.
func DefaultTweetStreamConfig() TweetStreamConfig { return hashtag.DefaultStreamConfig() }

// GenerateTweetStream builds a deterministic synthetic stream.
func GenerateTweetStream(cfg TweetStreamConfig) *TweetStream { return hashtag.Generate(cfg) }

// CompareOnlineVsStandard runs the Figure-6 Online-vs-Standard-FL pipeline.
func CompareOnlineVsStandard(s *TweetStream, lr float64, seed int64, shardDays int) hashtag.CompareResult {
	return hashtag.CompareOnlineVsStandard(s, lr, seed, shardDays)
}

// Series is a named (x, y) result curve.
type Series = metrics.Series

// ---------------------------------------------------------------------------
// Fleet-scale load & scenario harness (internal/loadgen, cmd/fleet-bench).

// LoadScenario is one composable fleet-simulation profile: device-speed
// tiers feeding I-Prof, churn, Byzantine fractions, network delay/loss and
// delta/full pull mixes, plus the server spec to run them against.
type LoadScenario = loadgen.Scenario

// LoadRunner executes a LoadScenario deterministically (virtual time) or
// goroutine-per-worker (realtime) — in-process, over the live HTTP wire,
// or over the persistent-session stream transport with server-pushed
// model announces.
type LoadRunner = loadgen.Runner

// BenchResult is the machine-readable outcome of a load run — what
// fleet-bench writes as BENCH_<scenario>.json. Same seed, same scenario →
// identical result modulo the Wallclock block.
type BenchResult = loadgen.Result

// Load-harness component specs.
type (
	// LoadTier is one device-speed class of the simulated fleet.
	LoadTier = loadgen.Tier
	// LoadByzantine configures the adversarial worker fraction.
	LoadByzantine = loadgen.ByzantineSpec
	// LoadNetwork injects RTT delay and push loss.
	LoadNetwork = loadgen.NetworkSpec
	// LoadChurn makes workers leave and rejoin with cold caches.
	LoadChurn = loadgen.ChurnSpec
	// LoadTree inserts a hierarchical aggregation tier (edge aggregators
	// with a FanIn window) between the fleet and the root server.
	LoadTree = loadgen.TreeSpec
	// LoadTreeBlock is the tree digest a TreeSpec run reports.
	LoadTreeBlock = loadgen.TreeBlock
)

// RunLoadScenario runs a registered scenario by name with the given seed —
// the programmatic equivalent of `fleet-bench -scenario name -seed s`.
func RunLoadScenario(ctx context.Context, name string, seed int64) (*BenchResult, error) {
	sc, err := loadgen.ByName(name)
	if err != nil {
		return nil, err
	}
	return (&LoadRunner{Scenario: sc, Seed: seed}).Run(ctx)
}

// RegisterLoadScenario adds a named scenario to the registry fleet-bench
// and RunLoadScenario resolve from.
func RegisterLoadScenario(s LoadScenario) { loadgen.Register(s) }

// LoadScenarios lists the registered scenario names.
func LoadScenarios() []string { return loadgen.Names() }

// LoadScenarioByName looks a scenario up.
func LoadScenarioByName(name string) (LoadScenario, error) { return loadgen.ByName(name) }

// CompareBench gates a fresh benchmark result against a committed baseline
// (throughput regression, accuracy drop, new protocol errors) — the CI
// regression gate as a library call.
func CompareBench(baseline, current *BenchResult, opts loadgen.CompareOptions) loadgen.CompareReport {
	return loadgen.Compare(baseline, current, opts)
}

// CompareTransports builds the poll-vs-push comparison between a streaming
// run and a per-request twin of the same scenario, seed and mode — what
// `fleet-bench -compare-transport` embeds into the result.
func CompareTransports(streaming, polling *BenchResult) (*loadgen.TransportComparison, error) {
	return loadgen.CompareTransports(streaming, polling)
}

// GateTransportWin asserts a streaming result beats its embedded polling
// twin on round p95 latency and connections per worker at equal final
// accuracy (±maxAccuracyDelta; <= 0 uses 0.01) — the stream-push CI gate.
func GateTransportWin(streaming *BenchResult, maxAccuracyDelta float64) error {
	return loadgen.GateTransportWin(streaming, maxAccuracyDelta)
}

// ---------------------------------------------------------------------------
// Experiment drivers.

// ExperimentScale selects CI-fast or paper-sized experiment runs.
type ExperimentScale = experiments.Scale

// Experiment scales.
const (
	// ScaleCI finishes in seconds.
	ScaleCI = experiments.ScaleCI
	// ScaleFull approximates the paper's workload sizes.
	ScaleFull = experiments.ScaleFull
)

// ExperimentReport is the output of one experiment driver.
type ExperimentReport = experiments.Report

// RunExperiment regenerates one table or figure of the paper by id (e.g.
// "fig8", "table2"); Experiments lists the known ids.
func RunExperiment(id string, scale ExperimentScale) (*ExperimentReport, error) {
	return experiments.Run(id, scale)
}

// Experiments lists the registered experiment ids.
func Experiments() []string { return experiments.All() }
