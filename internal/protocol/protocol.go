// Package protocol defines the wire messages of FLeet's learning-task
// protocol (Figure 2) and the codecs used to exchange them: the flat binary
// codec by default (the role of the paper's Kryo+Gzip Java streams, §2.4)
// and JSON for curl and non-Go workers.
package protocol

import "fleet/internal/compress"

// TaskRequest is step (1) of the protocol: the worker announces itself with
// its device information (for I-Prof) and the label distribution of its
// local data (for AdaSGD's similarity). Only label *indices* are ever
// transmitted, never semantic label values.
type TaskRequest struct {
	WorkerID    int    `json:"worker_id"`
	DeviceModel string `json:"device_model"`
	// TimeFeatures is the I-Prof feature vector for the computation-time
	// predictor; EnergyFeatures for the energy predictor.
	TimeFeatures   []float64 `json:"time_features"`
	EnergyFeatures []float64 `json:"energy_features"`
	// LabelCounts is the per-label sample count of the worker's local data.
	LabelCounts []int `json:"label_counts"`
	// KnownVersion is the model version the worker already holds; with
	// WantDelta set, the server may answer with the sparse difference
	// KnownVersion → current (TaskResponse.ParamsDelta) instead of the
	// full parameter vector. WantDelta doubles as the capability flag:
	// pre-delta clients never set it (version 0 is a legitimate
	// KnownVersion, so the integer alone cannot signal "no model held"),
	// and servers must keep sending full params to them.
	KnownVersion int  `json:"known_version,omitempty"`
	WantDelta    bool `json:"want_delta,omitempty"`
	// KnownEpoch is the server incarnation the cached model came from
	// (TaskResponse.ServerEpoch, echoed back). Every boot of a server's
	// state directory runs under its own epoch, so version numbers from
	// different incarnations are never confused: a delta request whose epoch does not match the server's
	// falls back to a full pull — patching a new-incarnation delta onto an
	// old-incarnation base would silently corrupt the cache, since the
	// same version number names different parameters across a restore.
	KnownEpoch int64 `json:"known_epoch,omitempty"`
}

// TaskResponse is steps (2)–(4): either a rejection by the controller, or
// the model parameters plus the I-Prof-bounded mini-batch size. Delta-aware
// servers answer a WantDelta request with exactly one of Params (full pull)
// or ParamsDelta (sparse delta pull).
type TaskResponse struct {
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
	// ModelVersion is the server's logical clock t at model pull.
	ModelVersion int `json:"model_version"`
	// Params is the full parameter vector. On in-process calls it may
	// alias the server's immutable snapshot storage: treat it as
	// read-only and copy before mutating.
	Params    []float64 `json:"params,omitempty"`
	BatchSize int       `json:"batch_size"`
	// ParamsDelta, when non-nil, is the exact sparse delta between the
	// params at DeltaBase (the request's KnownVersion, echoed back) and
	// the params at ModelVersion: it lists the changed coordinates with
	// their *new* values, so patching them into the worker's cached
	// vector reconstructs the server's parameters bit-for-bit. Params is
	// empty on delta responses.
	ParamsDelta *compress.Sparse `json:"params_delta,omitempty"`
	DeltaBase   int              `json:"delta_base,omitempty"`
	// ServerEpoch names the server's incarnation: 0 for the first boot
	// of a state directory (or a server with none), a nonce drawn from
	// the directory's boot count on every later boot, fresh or restored.
	// It is a name, not a counter: epochs are compared for equality
	// only. Clients echo it in GradientPush.ModelEpoch and
	// TaskRequest.KnownEpoch so the server can tell state learned from a
	// previous incarnation apart from its own — the versioned protocol's
	// crash-recovery dimension.
	ServerEpoch int64 `json:"server_epoch,omitempty"`
}

// GradientPush is step (5): the computed gradient plus the measured task
// cost, which feeds I-Prof's online observation stream. Exactly one of
// Gradient (dense) or SparseIndices/SparseValues (top-k compressed, see
// internal/compress) is populated.
type GradientPush struct {
	WorkerID    int    `json:"worker_id"`
	DeviceModel string `json:"device_model"`
	// ModelVersion is the logical clock at model pull; ModelEpoch the
	// server incarnation that served it. A push whose epoch is not the
	// server's own is rejected as version_conflict — the gradient was
	// computed on parameters a restored server cannot reason about — and
	// the worker resyncs with a full re-pull.
	//
	// Compatibility: pre-epoch clients always send 0, which matches a
	// state directory's first boot (epoch 0) but is rejected by every
	// later boot of it (a nonzero nonce) — accepting it would reintroduce
	// the silent version-number collision this field exists to prevent.
	// Such clients must be restarted after a server restart; epoch-aware
	// clients recover on their own.
	ModelVersion int       `json:"model_version"`
	ModelEpoch   int64     `json:"model_epoch,omitempty"`
	Gradient     []float64 `json:"gradient,omitempty"`
	// Sparse form: GradientLen is the dense length, SparseIndices the kept
	// coordinates, SparseValues their values.
	GradientLen   int       `json:"gradient_len,omitempty"`
	SparseIndices []int32   `json:"sparse_indices,omitempty"`
	SparseValues  []float64 `json:"sparse_values,omitempty"`
	// Quantized sparse values (compress chain stages "q8" / "f16"): at most
	// one of SparseValues, SparseF16 or SparseQ8Levels carries the values
	// for SparseIndices. SparseF16 holds IEEE 754 binary16 bit patterns;
	// SparseQ8Levels holds 8-bit uniform levels over [SparseQ8Min,
	// SparseQ8Max]. All omitempty, so pre-quantization payloads decode
	// unchanged.
	SparseF16      []uint16 `json:"sparse_f16,omitempty"`
	SparseQ8Levels []uint8  `json:"sparse_q8_levels,omitempty"`
	SparseQ8Min    float64  `json:"sparse_q8_min,omitempty"`
	SparseQ8Max    float64  `json:"sparse_q8_max,omitempty"`
	// Encoding is the self-describing wire tag of the gradient form (the
	// compress.Encoding* constants: "dense", "topk", "topk+q8",
	// "topk+f16"). Empty on pre-tag payloads — receivers then infer the
	// form from which fields are populated, exactly as before the tag
	// existed; when set it must agree with the populated fields.
	Encoding    string `json:"encoding,omitempty"`
	BatchSize   int    `json:"batch_size"`
	LabelCounts []int  `json:"label_counts"`
	// Measured execution cost of the learning task.
	CompTimeSec    float64   `json:"comp_time_sec"`
	EnergyPct      float64   `json:"energy_pct"`
	TimeFeatures   []float64 `json:"time_features"`
	EnergyFeatures []float64 `json:"energy_features"`
	// Contributing marks an aggregated push from an edge-aggregator tier
	// (internal/aggtree): the carried gradient is the window K-sum of that
	// many leaf gradients, so the receiver counts it with this weight to
	// preserve Equation 3's magnitude accounting end-to-end. 0 (absent, or
	// a pre-tree client) means an ordinary single-gradient push.
	Contributing int `json:"contributing,omitempty"`
}

// PushAck acknowledges a gradient push.
type PushAck struct {
	Applied bool `json:"applied"`
	// Staleness is the τ the server computed for this gradient.
	Staleness int `json:"staleness"`
	// Scale is the Equation-3 factor the gradient was applied with.
	Scale float64 `json:"scale"`
	// NewVersion is the server's logical clock after the push.
	NewVersion int `json:"new_version"`
}

// ModelAnnounce is the streaming transport's server-push message: when a
// drain publishes a new model snapshot, the server broadcasts the new
// version (and the sparse delta from the immediately preceding one) to
// every subscribed session, so workers refresh proactively instead of
// discovering staleness on their next poll. Announces are advisory — a
// worker that missed one (gap in the delta chain, different epoch, no
// cached model) simply falls back to the pull path.
type ModelAnnounce struct {
	// ModelVersion is the just-published logical clock value.
	ModelVersion int `json:"model_version"`
	// ServerEpoch is the incarnation that minted the version; deltas never
	// apply across epochs.
	ServerEpoch int64 `json:"server_epoch,omitempty"`
	// Delta, when non-nil, is the exact sparse delta DeltaBase →
	// ModelVersion (always ModelVersion-1 → ModelVersion from the drain
	// that minted it). Nil when the server keeps no delta history or the
	// drain rewrote too much of the vector to be worth sparsifying.
	Delta     *compress.Sparse `json:"delta,omitempty"`
	DeltaBase int              `json:"delta_base,omitempty"`
}

// Follows reports whether the announce patches a model held at (version,
// epoch): it carries a delta, from that epoch, based exactly on version, to
// a later version. An edge's relay can span several versions in one delta;
// its base is what anchors the patch.
func (a ModelAnnounce) Follows(version int, epoch int64) bool {
	return a.Delta != nil && a.ServerEpoch == epoch && a.DeltaBase == version && a.ModelVersion > version
}

// Stats is the server's diagnostic snapshot.
type Stats struct {
	ModelVersion  int     `json:"model_version"`
	TasksServed   int     `json:"tasks_served"`
	GradientsIn   int     `json:"gradients_in"`
	MeanStaleness float64 `json:"mean_staleness"`
	// PipelineStages and Aggregator describe the server's composed update
	// pipeline (internal/pipeline): the per-gradient stage names in chain
	// order and the window-aggregation rule. Empty on pre-pipeline servers,
	// so old JSON payloads decode unchanged.
	PipelineStages []string `json:"pipeline_stages,omitempty"`
	Aggregator     string   `json:"aggregator,omitempty"`
	// TasksDropped is the controller's reject counter. AdmissionPolicies
	// lists the composed admission chain in evaluation order
	// (internal/sched) and RejectsByPolicy breaks TasksDropped down by the
	// policy that rejected. All omitempty, so old payloads decode unchanged.
	TasksDropped      int            `json:"tasks_dropped,omitempty"`
	AdmissionPolicies []string       `json:"admission_policies,omitempty"`
	RejectsByPolicy   map[string]int `json:"rejects_by_policy,omitempty"`
	// DrainErrors counts aggregation windows the pipeline failed to fold
	// into the model (the window is discarded, the clock still advances).
	// The gradients of a failed window were acked — their pushers must not
	// retry — so this counter is the only place the failure is visible.
	DrainErrors int `json:"drain_errors,omitempty"`
	// Checkpoints counts durable state snapshots written since boot;
	// CheckpointErrors counts failed attempts. RestoredVersion is the
	// logical clock the server booted from (0 on a fresh boot). All
	// omitempty, so old payloads decode unchanged.
	Checkpoints      int `json:"checkpoints,omitempty"`
	CheckpointErrors int `json:"checkpoint_errors,omitempty"`
	RestoredVersion  int `json:"restored_version,omitempty"`
	// ServerEpoch is the incarnation's name (TaskResponse.ServerEpoch),
	// not a count of restores.
	ServerEpoch int64 `json:"server_epoch,omitempty"`
	// LeafGradients counts the individual worker gradients behind
	// GradientsIn: an aggregated push from an edge tier contributes its
	// Contributing count here but 1 to GradientsIn, so the two diverge
	// exactly when a tree is in front of this server. Equal to GradientsIn
	// on a flat topology (omitted when zero for old payloads).
	LeafGradients int `json:"leaf_gradients,omitempty"`
	// Tenant is the per-tenant block a multi-tenant deployment's serving
	// unit injects into its own stats (internal/tenant): identity, worker
	// population, policy rejects and the DP budget position. Nil on
	// untenanted servers, so old payloads decode unchanged.
	Tenant *TenantStats `json:"tenant,omitempty"`
	// WireUplinkByCodec / WireDownlinkByCodec break the HTTP /v1 routes'
	// request-body and response-body bytes down by negotiated wire codec
	// (content type), measured at the handler after transport framing.
	// Stamped by the HTTP layer, absent on in-process calls and on pre-v1
	// servers; omitempty, so old payloads decode unchanged.
	WireUplinkByCodec   map[string]int64 `json:"wire_uplink_by_codec,omitempty"`
	WireDownlinkByCodec map[string]int64 `json:"wire_downlink_by_codec,omitempty"`
	// ReplyWriteErrors counts HTTP replies that failed with their status
	// already sent: the client read a truncated body. Stamped like the above.
	ReplyWriteErrors int64 `json:"reply_write_errors,omitempty"`
}

// TenantStats is the per-tenant slice of a Stats snapshot: everything the
// tenant layer enforces on top of the serving unit it isolates.
type TenantStats struct {
	// Name is the tenant's registry key.
	Name string `json:"name"`
	// Workers is the distinct worker identities admitted so far;
	// MaxWorkers is the per-tenant worker quota (0: unlimited).
	Workers    int `json:"workers"`
	MaxWorkers int `json:"max_workers,omitempty"`
	// AuthRejects counts calls refused as unauthenticated (missing,
	// malformed or cross-tenant tokens); WorkerCapRejects counts worker
	// identities refused by the per-tenant quota; BudgetRejects counts
	// pushes refused because the DP budget was spent.
	AuthRejects      int64 `json:"auth_rejects,omitempty"`
	WorkerCapRejects int64 `json:"worker_cap_rejects,omitempty"`
	BudgetRejects    int64 `json:"budget_rejects,omitempty"`
	// The DP epsilon budget position (moments-accountant composition over
	// the tenant pipeline's dp stage): the configured budget, the ε spent
	// by the charged pushes, how many pushes were charged, and whether the
	// tenant has gone read-only. All zero when no budget is configured.
	EpsilonBudget   float64 `json:"epsilon_budget,omitempty"`
	EpsilonSpent    float64 `json:"epsilon_spent,omitempty"`
	BudgetCharges   int     `json:"budget_charges,omitempty"`
	BudgetExhausted bool    `json:"budget_exhausted,omitempty"`
}
