// Package node is the assembly and lifecycle layer every FLeet serving
// unit boots through: the root parameter server (cmd/fleet-server), the
// edge aggregators of the hierarchical tier (cmd/fleet-agg), the
// per-tenant sub-units of a multi-tenant deployment, and the loadgen
// harness's roots, tenant sub-runs, edges and restarted instances.
//
// A declarative Spec compiles — through the shared spec grammar and the
// name→constructor tables (pipeline, sched, compress) — into a
// Runtime owning the assembled service, its interceptor chain, both
// listeners (HTTP and stream), the checkpointer, and one canonical
// lifecycle state machine:
//
//	Start → Serve → Drain(ctx) → Checkpoint → Flush → Close
//
// with the drain ordering (stream goaway first, then HTTP shutdown, then
// window flush, then upstream close) defined exactly once, here, and
// proven by the role-parameterized tests in this package. FromSpec is the
// only place a serving unit is assembled: the binaries bind their flags
// onto a Spec and Run what it compiles to, a tenant unit compiles like a
// single-model root, the harness compiles its roots and edges here; a hot
// standby is just a second Runtime compiled from the same Spec.
package node

import (
	"time"

	"fleet/internal/iprof"
	"fleet/internal/service"
	"fleet/internal/tenant"
)

// Role selects which serving unit a Spec compiles into.
type Role string

const (
	// RoleRoot is the parameter server: it owns the model, applies the
	// update pipeline, and distributes snapshots.
	RoleRoot Role = "root"
	// RoleEdge is a hierarchical-aggregation tier node: it serves the
	// full worker protocol to leaves and forwards one aggregated
	// direction per K-window upstream.
	RoleEdge Role = "edge"
)

// CheckpointSpec is the durable-state configuration of a root node.
type CheckpointSpec struct {
	// Dir is the checkpoint directory; empty disables crash safety.
	Dir string
	// NonceDir persists the boot counter every boot draws its
	// incarnation epoch from (persist.BootNonce), fresh or restored.
	// Empty: Dir holds it; with no Dir either, a boot mints no nonce and
	// runs at epoch 0.
	NonceDir string
	// Every is the periodic checkpoint cadence in aggregation windows
	// (0: only at graceful shutdown).
	Every int
	// Keep is how many checkpoint files are retained in Dir.
	Keep int
	// Recover is the startup policy with Dir set: "latest" restores the
	// newest valid checkpoint and refuses to boot without one; "fresh"
	// (also what "" means) restores it too, but initializes a new model
	// when the directory holds no checkpoint at all.
	Recover string
}

// BindSpec is a node's listener surface.
type BindSpec struct {
	// Transport is which listeners serve: "http", "stream", "both", or
	// "none" (an embedded node with no listeners — the loadgen harness).
	// Empty means "http".
	Transport string
	// Addr is the HTTP listen address (with Transport http|both).
	Addr string
	// StreamAddr is the persistent-session listener's address (with
	// Transport stream|both).
	StreamAddr string
	// Drain bounds the graceful shutdown: in-flight requests, the stream
	// goaway round, and the final window flush all share this deadline.
	Drain time.Duration
}

// UpstreamSpec names the upstream an edge forwards its aggregated
// directions to.
type UpstreamSpec struct {
	// Target is the upstream base URL (http transport) or host:port
	// (stream transport).
	Target string
	// Transport is "http" (per-request) or "stream" (persistent session
	// absorbing server-pushed model announces). Empty means "http".
	Transport string
	// Service, when non-nil, overrides Target entirely with a direct
	// in-process upstream: loadgen's tree scenarios forward through the
	// swappable front a restart re-points.
	Service service.Service
}

// Spec declares one serving unit. The zero value of most fields follows
// the corresponding binary's flag default semantics: zero K means 1,
// zero DeltaHistory means the server default, an empty Stages spec is
// the empty pipeline, and an empty Admission spec is synthesized from the
// SLO knobs (root) or admits everything (edge).
type Spec struct {
	// Role is root or edge; empty compiles as root.
	Role Role
	// Name prefixes every lifecycle log line ("fleet-server: drained
	// cleanly"). Empty: derived from the role.
	Name string

	// Model and learning configuration.
	Arch             string
	LearningRate     float64
	K                int
	NonStragglerPct  float64
	Seed             int64
	DeltaHistory     int
	DefaultBatchSize int

	// Pipeline and admission, in the shared spec grammar.
	Stages     string
	Aggregator string
	// Admission is the policy chain spec; empty synthesizes the chain
	// from TimeSLO/EnergySLO/MinBatch/MaxSimilarity on a root (the
	// Figure-2 knobs), and admits everything on an edge. A root pretrains
	// exactly the I-Prof profilers its chain names, at the SLOs it states.
	Admission string

	// Figure-2 controller knobs, used when Admission is empty: each set
	// knob names one policy, in this order — "iprof-time(TimeSLO),
	// iprof-energy(EnergySLO),min-batch(MinBatch),similarity(MaxSimilarity)".
	// They have no other meaning.
	TimeSLO       float64
	EnergySLO     float64
	MinBatch      int
	MaxSimilarity float64

	// TimeObservations/EnergyObservations, when non-nil, replace the
	// I-Prof offline pretraining sweep with pre-collected observations
	// (the loadgen harness collects exactly once so restarted instances
	// rebuild identical profilers). Nil runs the standard catalogue sweep,
	// seeded by Seed, for a profiler the admission chain names.
	TimeObservations   []iprof.Observation
	EnergyObservations []iprof.Observation
	// Now injects the clock time-windowed admission policies read (nil:
	// wall clock); deterministic harnesses pass their virtual clock.
	Now func() time.Time

	// Interceptor knobs, outermost-first: recovery is always on.
	Verbose   bool
	RateLimit float64
	RateBurst int
	Deadline  time.Duration

	// Checkpoint configures durable state (root only).
	Checkpoint CheckpointSpec
	// Bind is the listener surface.
	Bind BindSpec
	// Upstream is where an edge forwards to (required for RoleEdge).
	Upstream UpstreamSpec
	// ID is the worker identity an edge presents upstream.
	ID int

	// Tenants switches a root into multi-tenant mode: each config compiles
	// like a single-model root (same pipeline, admission and boot path)
	// into a child unit behind the parent's listeners, and the
	// single-model fields above (Arch, Stages, ...) no longer shape the
	// serving surface. A unit checkpoints under Checkpoint.Dir/<name> and
	// always boots "fresh if empty", whatever Checkpoint.Recover says.
	Tenants []tenant.Config
	// DefaultTenant names the tenant un-tenanted routes alias to (""
	// the first declared); set with no Tenants, the Spec is refused.
	DefaultTenant string

	// Logf receives every lifecycle log line (nil: log.Printf).
	Logf func(format string, args ...interface{})
}

// name returns the lifecycle log prefix.
func (s Spec) name() string {
	if s.Name != "" {
		return s.Name
	}
	if s.Role == RoleEdge {
		return "fleet-agg"
	}
	return "fleet-server"
}
