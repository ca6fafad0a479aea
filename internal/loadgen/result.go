package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"fleet/internal/metrics"
	"fleet/internal/protocol"
)

// Counts are the protocol-level event counters of one run. Everything here
// is deterministic.
type Counts struct {
	PullAttempts int `json:"pull_attempts"`
	Accepted     int `json:"accepted"`
	Rejected     int `json:"rejected"`
	Pushes       int `json:"pushes"`
	LostPushes   int `json:"lost_pushes,omitempty"`
	DeltaPulls   int `json:"delta_pulls,omitempty"`
	FullPulls    int `json:"full_pulls"`
	Departures   int `json:"departures,omitempty"`
	Rejoins      int `json:"rejoins,omitempty"`
	// Restarts counts server hard-kill/restore events (RestartSpec);
	// Resyncs counts worker recoveries from them — version-conflict pushes
	// that dropped the cache and retried the round with a full pull.
	// Resyncs are transient by design, so they are NOT protocol errors:
	// the baselines' "zero protocol errors" means zero *permanent* failures.
	Restarts int `json:"restarts,omitempty"`
	Resyncs  int `json:"resyncs,omitempty"`
	// ProtocolErrors counts service calls that returned an error; every
	// baseline run asserts it stays zero. ErrorSamples keeps
	// the first few messages for diagnosis.
	ProtocolErrors int      `json:"protocol_errors"`
	ErrorSamples   []string `json:"error_samples,omitempty"`
	// TenantRejects counts calls the tenant enforcement layer refused —
	// worker-quota and DP-budget throttles in a multi-tenant run. Like
	// Resyncs, these are expected behavior, not protocol errors: the noisy
	// neighbor being throttled is the feature under test, and each reject
	// is attributed in the tenant's stats block.
	TenantRejects int `json:"tenant_rejects,omitempty"`
}

// LatencyBlock digests the simulated (virtual-time) latencies: the network
// delay paid by pulls and pushes, and the full pull→ack round including
// device compute. All in seconds, deterministic per seed.
type LatencyBlock struct {
	PullSec  metrics.Summary `json:"pull_sec"`
	PushSec  metrics.Summary `json:"push_sec"`
	RoundSec metrics.Summary `json:"round_sec"`
}

// StalenessBlock is the staleness distribution over acked pushes.
type StalenessBlock struct {
	Mean float64             `json:"mean"`
	P50  int                 `json:"p50"`
	P95  int                 `json:"p95"`
	P99  int                 `json:"p99"`
	Hist []metrics.IntBucket `json:"hist,omitempty"`
}

// TransportBlock digests the transport-level cost of one wire run (HTTP or
// stream; in-process runs have no wire and omit the block). Everything here
// is deterministic: connection counts follow the event
// order, and wire bytes are encoded frame/payload sizes, not TCP overhead.
type TransportBlock struct {
	// Connections is the fleet-wide transport connection count: HTTP
	// dials (one per request — mobile polling keeps no pooled sockets) or
	// stream sessions established (one per worker, plus churn redials).
	Connections    int64   `json:"connections"`
	ConnsPerWorker float64 `json:"conns_per_worker"`
	// WireUplinkBytes/WireDownlinkBytes tally encoded bytes crossing the
	// wire in each direction, from the workers' point of view.
	WireUplinkBytes   int64 `json:"wire_uplink_bytes"`
	WireDownlinkBytes int64 `json:"wire_downlink_bytes"`
	// Announces counts server-pushed model announcements delivered to
	// subscribed sessions; Refreshes counts the announces workers absorbed
	// into their cached model ahead of any pull. Stream transport only.
	Announces int64 `json:"announces,omitempty"`
	Refreshes int   `json:"refreshes,omitempty"`
	// PullStaleness is the distribution of how many model versions each
	// accepted pull was behind (served version − cached version): the
	// freshness metric server-pushed announces exist to improve.
	PullStaleness StalenessBlock `json:"pull_staleness"`
}

// TreeBlock digests the hierarchical aggregation tier of a TreeSpec run:
// how much fan-in compressed the root's push load, and what the epoch
// cascade cost when a restart rode along.
type TreeBlock struct {
	Edges int `json:"edges"`
	FanIn int `json:"fan_in"`
	// RootPushes is how many aggregated window directions the edges landed
	// on the root — ≈ accepted leaf pushes / FanIn.
	RootPushes int64 `json:"root_pushes"`
	// LeafGradients is the root's count of individual worker gradients
	// those pushes sum (Contributing-weighted), vs its GradientsIn which
	// counts the aggregated pushes themselves.
	LeafGradients int `json:"leaf_gradients"`
	// UpstreamConflicts counts edge forwards the root rejected across an
	// incarnation change; EdgeResyncs the full re-pulls that recovered;
	// LostWindows every drained window that failed to land (conflicts
	// included — their leaf gradients were acked and are gone).
	UpstreamConflicts int64 `json:"upstream_conflicts,omitempty"`
	EdgeResyncs       int64 `json:"edge_resyncs,omitempty"`
	LostWindows       int64 `json:"lost_windows,omitempty"`
}

// TransportComparison embeds the polling twin's numbers into a streaming
// run's result — what `fleet-bench -compare-transport` writes, and what the
// CI stream-push gate asserts on. The twin is the same scenario and seed
// re-run over the named transport.
type TransportComparison struct {
	// Transport is the polling twin compared against (e.g. "http").
	Transport string `json:"transport"`
	// The twin's headline numbers.
	RoundP95Sec       float64 `json:"round_p95_sec"`
	ConnsPerWorker    float64 `json:"conns_per_worker"`
	WireUplinkBytes   int64   `json:"wire_uplink_bytes"`
	WireDownlinkBytes int64   `json:"wire_downlink_bytes"`
	PullStalenessP95  int     `json:"pull_staleness_p95"`
	FinalAccuracy     float64 `json:"final_accuracy"`
	// RoundP95Improvement is 1 − self/twin on round p95 latency (positive:
	// streaming is faster). AccuracyDelta is self − twin.
	RoundP95Improvement float64 `json:"round_p95_improvement"`
	AccuracyDelta       float64 `json:"accuracy_delta"`
	// The verdicts the stream-push gate asserts.
	RoundP95Win bool `json:"round_p95_win"`
	ConnWin     bool `json:"conn_win"`
}

// CompareTransports builds the poll-vs-push comparison: streaming is the
// run under test, polling the same scenario/seed re-run over a per-request
// transport. Mismatched runs are rejected — the numbers would be
// meaningless.
func CompareTransports(streaming, polling *Result) (*TransportComparison, error) {
	if streaming.Scenario != polling.Scenario || streaming.Seed != polling.Seed {
		return nil, fmt.Errorf("loadgen: transport comparison needs the same scenario/seed (%s/%d vs %s/%d)",
			streaming.Scenario, streaming.Seed, polling.Scenario, polling.Seed)
	}
	if streaming.Transport == polling.Transport {
		return nil, fmt.Errorf("loadgen: transport comparison of %s against itself", streaming.Transport)
	}
	tc := &TransportComparison{
		Transport:     polling.Transport,
		RoundP95Sec:   polling.Latency.RoundSec.P95,
		FinalAccuracy: polling.FinalAccuracy,
		AccuracyDelta: streaming.FinalAccuracy - polling.FinalAccuracy,
	}
	if ts := polling.TransportStats; ts != nil {
		tc.ConnsPerWorker = ts.ConnsPerWorker
		tc.WireUplinkBytes = ts.WireUplinkBytes
		tc.WireDownlinkBytes = ts.WireDownlinkBytes
		tc.PullStalenessP95 = ts.PullStaleness.P95
	}
	selfP95 := streaming.Latency.RoundSec.P95
	if tc.RoundP95Sec > 0 {
		tc.RoundP95Improvement = 1 - selfP95/tc.RoundP95Sec
	}
	tc.RoundP95Win = selfP95 < tc.RoundP95Sec
	tc.ConnWin = streaming.TransportStats != nil && polling.TransportStats != nil &&
		streaming.TransportStats.ConnsPerWorker < polling.TransportStats.ConnsPerWorker
	return tc, nil
}

// GateTransportWin asserts the streaming result beats its embedded polling
// twin: lower round p95 latency, fewer connections per worker, and a final
// accuracy within maxAccuracyDelta (absolute). It returns every violated
// condition in one error.
func GateTransportWin(streaming *Result, maxAccuracyDelta float64) error {
	tc := streaming.TransportComparison
	if tc == nil {
		return fmt.Errorf("loadgen: result carries no transport comparison (run with -compare-transport)")
	}
	var fails []string
	if !tc.RoundP95Win {
		fails = append(fails, fmt.Sprintf("round p95 %.4gs did not beat %s's %.4gs",
			streaming.Latency.RoundSec.P95, tc.Transport, tc.RoundP95Sec))
	}
	if !tc.ConnWin {
		self := 0.0
		if streaming.TransportStats != nil {
			self = streaming.TransportStats.ConnsPerWorker
		}
		fails = append(fails, fmt.Sprintf("connections per worker %.3g did not beat %s's %.3g",
			self, tc.Transport, tc.ConnsPerWorker))
	}
	if d := tc.AccuracyDelta; d > maxAccuracyDelta || d < -maxAccuracyDelta {
		fails = append(fails, fmt.Sprintf("final accuracy delta %+.4f outside ±%.4f", d, maxAccuracyDelta))
	}
	if len(fails) > 0 {
		return fmt.Errorf("loadgen: transport win gate: %s", strings.Join(fails, "; "))
	}
	return nil
}

// TenantResult is one tenant's slice of a multi-tenant run: the tenant's
// own sub-run result (wall-clock stripped — the parent result carries the
// only wallclock block) plus the serving unit's enforcement attribution.
type TenantResult struct {
	Name string `json:"name"`
	// Seed is the tenant's derived sub-run seed (master seed ⊕ name hash) —
	// what a solo twin must run with to reproduce this tenant's stream.
	Seed   int64   `json:"seed"`
	Result *Result `json:"result"`
	// Stats is the unit's per-tenant attribution: enrolled workers and the
	// auth/worker-cap/budget reject counters, plus the ε ledger.
	Stats *protocol.TenantStats `json:"stats"`
	// Solo embeds the solo-twin comparison (fleet-bench -compare-solo).
	Solo *TenantComparison `json:"solo,omitempty"`
}

// TenantComparison compares a tenant's sub-run against its solo twin: the
// same derived scenario and seed run directly against a server, with no
// tenant layer and no neighbors. For an unconstrained tenant the two must
// be identical — the pass-through and isolation guarantee at once.
type TenantComparison struct {
	// FinalAccuracy is the twin's; AccuracyDelta is tenant − twin.
	FinalAccuracy float64 `json:"final_accuracy"`
	AccuracyDelta float64 `json:"accuracy_delta"`
	// Identical reports bit-for-bit equality of the deterministic
	// projections (wallclock stripped).
	Identical bool `json:"identical"`
}

// CompareTenantSolo builds the tenant-vs-solo-twin comparison. The twin
// must have run the tenant's own derived scenario and seed
// (TenantSubScenario) — anything else is rejected.
func CompareTenantSolo(tr *TenantResult, solo *Result) (*TenantComparison, error) {
	if tr.Result == nil {
		return nil, fmt.Errorf("loadgen: tenant %s carries no sub-run result", tr.Name)
	}
	if solo.Scenario != tr.Result.Scenario || solo.Seed != tr.Seed {
		return nil, fmt.Errorf("loadgen: solo twin for tenant %s needs scenario/seed %s/%d, got %s/%d",
			tr.Name, tr.Result.Scenario, tr.Seed, solo.Scenario, solo.Seed)
	}
	diff, err := Diff(tr.Result, solo)
	if err != nil {
		return nil, err
	}
	return &TenantComparison{
		FinalAccuracy: solo.FinalAccuracy,
		AccuracyDelta: tr.Result.FinalAccuracy - solo.FinalAccuracy,
		Identical:     diff == "",
	}, nil
}

// GateTenantIsolation asserts the noisy-neighbor contract on a multi-tenant
// result: zero protocol errors fleet-wide; every constrained tenant (one
// whose fleet exceeds its worker quota, or that carries an ε budget) shows
// its throttling attributed in per-tenant stats; and every unconstrained
// tenant matches its solo twin within maxAccuracyDelta (absolute) — with
// the comparison present, i.e. the run used -compare-solo. It returns every
// violated condition in one error.
func GateTenantIsolation(res *Result, maxAccuracyDelta float64) error {
	if len(res.Tenants) == 0 {
		return fmt.Errorf("loadgen: result carries no tenant blocks (not a multi-tenant run)")
	}
	var fails []string
	if res.Counts.ProtocolErrors > 0 {
		fails = append(fails, fmt.Sprintf("%d protocol errors (samples: %v)", res.Counts.ProtocolErrors, res.Counts.ErrorSamples))
	}
	specOf := map[string]TenantSpec{}
	for _, ts := range res.Config.Tenants {
		specOf[ts.Name] = ts
	}
	for _, tr := range res.Tenants {
		ts, ok := specOf[tr.Name]
		if !ok {
			fails = append(fails, fmt.Sprintf("tenant %s has no spec in the result's config", tr.Name))
			continue
		}
		workers := res.Config.Workers
		if ts.Workers > 0 {
			workers = ts.Workers
		}
		constrained := (ts.MaxWorkers > 0 && workers > ts.MaxWorkers) || ts.Epsilon > 0
		if constrained {
			if tr.Stats == nil || tr.Stats.WorkerCapRejects+tr.Stats.BudgetRejects == 0 {
				fails = append(fails, fmt.Sprintf("constrained tenant %s shows no attributed throttling", tr.Name))
			}
			continue
		}
		if tr.Solo == nil {
			fails = append(fails, fmt.Sprintf("tenant %s has no solo-twin comparison (run with -compare-solo)", tr.Name))
			continue
		}
		if d := tr.Solo.AccuracyDelta; d > maxAccuracyDelta || d < -maxAccuracyDelta {
			fails = append(fails, fmt.Sprintf("tenant %s accuracy delta %+.4f vs solo twin outside ±%.4f", tr.Name, d, maxAccuracyDelta))
		}
		if !tr.Solo.Identical {
			fails = append(fails, fmt.Sprintf("tenant %s sub-run is not bit-for-bit identical to its solo twin", tr.Name))
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("loadgen: tenant isolation gate: %s", strings.Join(fails, "; "))
	}
	return nil
}

// AccuracyPoint is one point of the accuracy-vs-round series.
type AccuracyPoint struct {
	AfterPushes int     `json:"after_pushes"`
	Accuracy    float64 `json:"accuracy"`
}

// ServerBlock echoes the server's own diagnostics at run end. After a
// RestartSpec kill it describes the *restored* instance: RestoredVersion is
// the checkpointed clock it booted from, and the counters include the
// carried-over pre-kill state the checkpoint preserved.
type ServerBlock struct {
	ModelVersion      int            `json:"model_version"`
	GradientsIn       int            `json:"gradients_in"`
	MeanStaleness     float64        `json:"mean_staleness"`
	PipelineStages    []string       `json:"pipeline_stages,omitempty"`
	Aggregator        string         `json:"aggregator,omitempty"`
	AdmissionPolicies []string       `json:"admission_policies,omitempty"`
	RejectsByPolicy   map[string]int `json:"rejects_by_policy,omitempty"`
	DrainErrors       int            `json:"drain_errors,omitempty"`
	Checkpoints       int            `json:"checkpoints,omitempty"`
	RestoredVersion   int            `json:"restored_version,omitempty"`
	ServerEpoch       int64          `json:"server_epoch,omitempty"`
}

// WallclockBlock holds everything measured with a real clock: the only part
// of a Result that legitimately differs between two runs of the same seed.
// Comparison and determinism checks strip it.
type WallclockBlock struct {
	ElapsedSec float64 `json:"elapsed_sec"`
	// PullSec/PushSec digest the real duration of each service call
	// (in-process cost, or the full wire round-trip over HTTP).
	PullSec metrics.Summary `json:"pull_sec"`
	PushSec metrics.Summary `json:"push_sec"`
}

// Result is fleet-bench's machine-readable output (BENCH_<scenario>.json).
type Result struct {
	Scenario    string `json:"scenario"`
	Description string `json:"description,omitempty"`
	Seed        int64  `json:"seed"`
	Transport   string `json:"transport"`
	Workers     int    `json:"workers"`
	Rounds      int    `json:"rounds"`
	// Config echoes the fully defaulted scenario that ran, so a baseline
	// JSON documents exactly what produced it.
	Config Scenario `json:"config"`

	Counts Counts `json:"counts"`
	// VirtualDurationSec is the simulated duration of the run;
	// ThroughputPerSec is accepted pushes per virtual second.
	VirtualDurationSec float64         `json:"virtual_duration_sec"`
	ThroughputPerSec   float64         `json:"throughput_pushes_per_sec"`
	Latency            LatencyBlock    `json:"latency"`
	Staleness          StalenessBlock  `json:"staleness"`
	MeanScale          float64         `json:"mean_scale"`
	Accuracy           []AccuracyPoint `json:"accuracy,omitempty"`
	FinalAccuracy      float64         `json:"final_accuracy"`
	Server             ServerBlock     `json:"server"`
	// TransportStats digests connection counts and wire bytes for wire
	// transports (nil for in-process runs). TransportComparison, when
	// present, embeds the polling twin a streaming run was compared to
	// (fleet-bench -compare-transport).
	TransportStats      *TransportBlock      `json:"transport_stats,omitempty"`
	TransportComparison *TransportComparison `json:"transport_comparison,omitempty"`
	// Tree digests the hierarchical aggregation tier (TreeSpec runs only).
	Tree *TreeBlock `json:"tree,omitempty"`
	// Tenants holds the per-tenant slices of a multi-tenant run, in spec
	// order: each tenant's own sub-run result plus its serving unit's
	// enforcement attribution. The parent's Counts/FinalAccuracy aggregate
	// across them (see runTenants).
	Tenants []*TenantResult `json:"tenants,omitempty"`

	Wallclock *WallclockBlock `json:"wallclock,omitempty"`

	// tenantStats is the block a tenant sub-run's unit stamped into its
	// final Stats, which runTenants lifts into the parent's TenantResult.
	tenantStats *protocol.TenantStats
}

// StripWallclock returns a copy without the wall-clock block — the
// deterministic projection two same-seed virtual runs must agree on
// bit-for-bit.
func (r *Result) StripWallclock() *Result {
	cp := *r
	cp.Wallclock = nil
	return &cp
}

// MarshalCanonical renders the result as indented JSON with a trailing
// newline. encoding/json sorts map keys, so equal results produce equal
// bytes.
func (r *Result) MarshalCanonical() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the canonical JSON to path.
func (r *Result) WriteFile(path string) error {
	b, err := r.MarshalCanonical()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadResult loads a BENCH_*.json file.
func ReadResult(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("loadgen: %s: %w", path, err)
	}
	return &r, nil
}

// Diff compares two results on every deterministic field (wallclock
// stripped) and returns the first line where their canonical JSONs differ,
// with its line number, or "" when they are identical. Identity is the
// whole contract between two runs of one scenario and seed: the runs are
// deterministic, so any difference is a behaviour change (fleet-bench
// -compare and TestBaselinesReplay hold every baseline to it).
func Diff(a, b *Result) (string, error) {
	aj, err := a.StripWallclock().MarshalCanonical()
	if err != nil {
		return "", err
	}
	bj, err := b.StripWallclock().MarshalCanonical()
	if err != nil {
		return "", err
	}
	if bytes.Equal(aj, bj) {
		return "", nil
	}
	// Canonical JSON has no empty lines, so two that differ do so before
	// either ends.
	al, bl := strings.Split(string(aj), "\n"), strings.Split(string(bj), "\n")
	i := 0
	for al[i] == bl[i] {
		i++
	}
	return fmt.Sprintf("canonical JSON line %d:\n-%s\n+%s", i+1, al[i], bl[i]), nil
}
