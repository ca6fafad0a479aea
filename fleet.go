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
// The package exposes what the examples/ programs and README.md use:
//
//  1. The middleware itself: NewServer/NewWorker speak the paper's
//     learning-task protocol (Figure 2) in-process or over HTTP, and
//     NewNode compiles a declarative NodeSpec into a serving runtime.
//  2. The evaluation driver: RunAsync reproduces the paper's controlled-
//     staleness experiments by driving NewServer's server with gradients
//     computed on past snapshots; the device simulator stands in for the
//     heterogeneous Android fleet.
//
// cmd/fleet-experiments regenerates every table and figure of the paper's
// evaluation. See the examples/ directory for runnable end-to-end programs
// and README.md for the quickstart, the interceptor architecture and the
// wire protocol.
package fleet

import (
	"context"
	"math/rand"
	"net/http"
	"time"

	"fleet/internal/compress"
	"fleet/internal/core"
	"fleet/internal/data"
	"fleet/internal/device"
	"fleet/internal/hashtag"
	"fleet/internal/iprof"
	"fleet/internal/learning"
	"fleet/internal/loadgen"
	"fleet/internal/nn"
	"fleet/internal/node"
	"fleet/internal/pipeline"
	"fleet/internal/protocol"
	"fleet/internal/sched"
	"fleet/internal/server"
	"fleet/internal/service"
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
//	svc := fleet.Chain(srv, fleet.Recovery(), fleet.RateLimit(50, 10))
func Chain(svc Service, interceptors ...Interceptor) Service {
	return service.Chain(svc, interceptors...)
}

// Recovery returns an interceptor converting panics into structured
// internal errors.
func Recovery() Interceptor { return service.Recovery() }

// RateLimit returns an interceptor enforcing a per-worker token bucket
// (req/s, burst); perSec <= 0 disables limiting.
func RateLimit(perSec float64, burst int) Interceptor { return service.RateLimit(perSec, burst) }

// AroundService builds a custom interceptor from a hook that runs around
// every method uniformly — the extension point future concerns (batching,
// caching, auth) attach to.
func AroundService(hook func(ctx context.Context, info ServiceCallInfo, next func(context.Context) (interface{}, error)) (interface{}, error)) Interceptor {
	return service.Around(hook)
}

// Server is the FLeet parameter server hosting the global model, AdaSGD,
// I-Prof and the update pipeline.
type Server = server.Server

// ServerConfig parameterizes a Server.
type ServerConfig = server.Config

// NewServer builds a parameter server.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// NewHandler exposes a Service over the versioned HTTP wire protocol
// (/v1/task, /v1/gradient, /v1/stats).
func NewHandler(svc Service) http.Handler { return server.NewHandler(svc) }

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

// CodecJSON returns the interoperable, curl-friendly wire codec.
func CodecJSON() Codec { return protocol.JSON }

// APIError is the structured error of the wire protocol; errors.As
// recovers it from any Service call, local or remote.
type APIError = protocol.Error

// Compressor turns a dense gradient into its wire form (WorkerConfig.Compress
// builds one internally).
type Compressor = compress.Compressor

// CompressorOptions parameterizes BuildCompressor: the model's parameter
// count and the RNG stochastic quantizers draw from.
type CompressorOptions = compress.Options

// BuildCompressor composes a compression chain from a spec like
// "topk(16)", "topk(16),q8" or "topk(16),f16". The empty spec returns
// (nil, nil): no compression.
func BuildCompressor(specStr string, opts CompressorOptions) (Compressor, error) {
	return compress.Build(specStr, opts)
}

// ---------------------------------------------------------------------------
// Node runtime (internal/node): declarative deployments.

// NodeSpec declares one FLeet node — root parameter server or edge
// aggregator — as data: model, pipeline, admission chain, checkpoint
// policy, transport bindings, tenants. NewNode compiles it through the
// same spec grammar and name tables as the fleet-server/fleet-agg flags
// (which bind straight onto this type).
type NodeSpec = node.Spec

// NodeRuntime owns one compiled node: the assembled service, both
// listeners, the checkpointer, and the canonical lifecycle
// Start → Serve → Drain → Checkpoint → Flush → Close.
type NodeRuntime = node.Runtime

// NodeRoot is the parameter-server role.
const NodeRoot = node.RoleRoot

// NodeCheckpointSpec declares a node's durability policy (directory,
// cadence, retention, recover posture, boot-nonce directory).
type NodeCheckpointSpec = node.CheckpointSpec

// NodeBindSpec declares a node's listeners (transport, addresses, drain
// deadline).
type NodeBindSpec = node.BindSpec

// NewNode compiles a NodeSpec into a NodeRuntime — the one way to assemble
// a serving unit, durable or not. Compilation is a pure function of the
// Spec, so rebuilding a killed node from the same Spec reproduces it
// exactly.
func NewNode(spec NodeSpec) (*NodeRuntime, error) { return node.FromSpec(spec) }

// ---------------------------------------------------------------------------
// Learning algorithms (§2.3).

// Algorithm scales gradients in the server update (Equation 3).
type Algorithm = learning.Algorithm

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

// ---------------------------------------------------------------------------
// Update pipeline (§4 pluggability on the live serving path).

// Pipeline is the server's composable update pipeline: per-gradient Stages
// (staleness scaling, DP perturbation, filters) feeding one
// WindowAggregator that folds each K-window into the model. Set it on
// ServerConfig.Pipeline; a nil config builds the default (staleness
// scaling in front of the mean window). A pipeline is stateful (its
// aggregator holds the window): build one per server.
type Pipeline = pipeline.Pipeline

// Gradient is one pushed gradient in flight through a Pipeline: dense, or
// sparse (Indices non-nil) until code that needs every coordinate calls
// its Densify. A custom Stage or WindowAggregator receives it.
type Gradient = pipeline.Gradient

// Stage is one per-gradient transform of the update pipeline.
type Stage = pipeline.Stage

// WindowAggregator owns the K-window of Equation 3 inside a Pipeline.
type WindowAggregator = pipeline.WindowAggregator

// PipelineOptions carries the dependencies spec-built pipelines draw on
// (the algorithm for "staleness", the DP noise seed).
type PipelineOptions = pipeline.BuildOptions

// NewPipeline composes stages (run in order) in front of agg.
func NewPipeline(agg WindowAggregator, stages ...Stage) (*Pipeline, error) {
	return pipeline.New(agg, stages...)
}

// BuildPipeline composes a pipeline from spec strings, e.g.
//
//	fleet.BuildPipeline("staleness,norm-filter(100)", "krum(1)",
//	    fleet.PipelineOptions{Algorithm: algo})
func BuildPipeline(stagesSpec, aggSpec string, opts PipelineOptions) (*Pipeline, error) {
	return pipeline.Build(stagesSpec, aggSpec, opts)
}

// ---------------------------------------------------------------------------
// Admission & scheduling (the downlink half of Figure 2, pluggable).

// AdmissionPolicy decides whether (and at what mini-batch size) a task
// request is admitted — steps (1)–(4) of Figure 2 as a composable module.
// Set a chain of them on ServerConfig.Admission; nil admits every task at
// the default batch size.
type AdmissionPolicy = sched.AdmissionPolicy

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

// BuildAdmission composes an admission chain from a spec string, e.g.
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

// MinBatchPolicy rejects tasks whose prescribed batch fell below n (§2.2).
func MinBatchPolicy(n int) AdmissionPolicy { return sched.MinBatch(n) }

// PerWorkerQuotaPolicy admits at most n tasks per worker per window — the
// admission-level complement of the RateLimit interceptor. Stateful: build
// one per server.
func PerWorkerQuotaPolicy(n int, window time.Duration) AdmissionPolicy {
	return sched.PerWorkerQuota(n, window)
}

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

// KindTime makes a profiler target a computation-time SLO.
const KindTime = iprof.KindTime

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

// ArchTinyMNIST is a fast 14×14 CNN for tests and demos.
const ArchTinyMNIST = nn.ArchTinyMNIST

// Sample is one labelled training example.
type Sample = nn.Sample

// Dataset is a labelled train/test split.
type Dataset = data.Dataset

// TinyMNIST builds the fast 14×14 dataset used by examples and tests.
func TinyMNIST(seed int64, trainPerClass, testPerClass int) *Dataset {
	return data.TinyMNIST(seed, trainPerClass, testPerClass)
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

// ---------------------------------------------------------------------------
// Fleet-scale load & scenario harness (internal/loadgen, cmd/fleet-bench).

// LoadScenario is one composable fleet-simulation profile: device-speed
// tiers feeding I-Prof, churn, Byzantine fractions, network delay/loss and
// delta/full pull mixes, plus the server spec to run them against.
type LoadScenario = loadgen.Scenario

// BenchResult is the machine-readable outcome of a load run — what
// fleet-bench writes as BENCH_<scenario>.json. Same seed, same scenario →
// byte-identical canonical JSON.
type BenchResult = loadgen.Result

// LoadScenarioByName returns a built-in scenario (fleet-bench -list names
// them) as a value to run as is or to adjust first.
func LoadScenarioByName(name string) (LoadScenario, error) { return loadgen.ByName(name) }

// RunLoadScenario runs a scenario with the given seed — the programmatic
// equivalent of `fleet-bench -scenario name -seed s`.
func RunLoadScenario(ctx context.Context, sc LoadScenario, seed int64) (*BenchResult, error) {
	return (&loadgen.Runner{Scenario: sc, Seed: seed}).Run(ctx)
}
