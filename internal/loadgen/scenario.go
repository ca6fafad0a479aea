// Package loadgen is FLeet's deterministic fleet-scale load and scenario
// harness: it spins up N simulated workers — heterogeneous device tiers
// feeding I-Prof, mid-training churn, Byzantine pushers, lossy high-latency
// networks, mixed delta/full pulls — against a real *server.Server
// (in-process, over the live v1 HTTP wire protocol, or over the
// persistent-session stream transport with server-pushed model announces)
// and measures what the paper's claims are about: throughput, staleness,
// latency percentiles, rejects-by-policy, wire bytes and accuracy-vs-round.
//
// Every scenario is seeded through internal/simrand and driven on virtual
// time by a discrete-event loop whose event order is a pure function of the
// seed — so a scenario's Result replays byte for byte and CI can gate on
// the numbers. No real clock enters a Result; bench/perf measures wall
// time.
package loadgen

import (
	"fmt"

	"fleet/internal/protocol"
	"fleet/internal/spec"
)

// Byzantine attack kinds.
const (
	// AttackSignFlip negates and amplifies each gradient (g ← −s·g).
	AttackSignFlip = "sign-flip"
	// AttackLabelFlip shifts every local label by one class, poisoning the
	// data rather than the gradient arithmetic.
	AttackLabelFlip = "label-flip"
	// AttackScaledNoise replaces the gradient with N(0, s²) noise.
	AttackScaledNoise = "scaled-noise"
)

// Tier is one device-speed class of the fleet: a fraction of the workers
// run devices whose cost slopes are scaled by SpeedFactor (straggler tiers
// use factors ≫ 1). Tier-scaled devices are distinct device models to
// I-Prof, so the speed distribution flows into its cold-start pretraining
// and per-model personalization.
type Tier struct {
	Name        string  `json:"name"`
	Weight      float64 `json:"weight"`
	SpeedFactor float64 `json:"speed_factor"`
}

// ByzantineSpec configures the adversarial fraction of the fleet.
type ByzantineSpec struct {
	// Fraction of workers that are adversarial (rounded to the nearest
	// worker count; membership is drawn from the scenario seed).
	Fraction float64 `json:"fraction,omitempty"`
	// Attack is one of AttackSignFlip, AttackLabelFlip, AttackScaledNoise.
	Attack string `json:"attack,omitempty"`
	// Scale is the attack amplitude (amplification for sign-flip, σ for
	// scaled-noise; unused by label-flip). Default 1.
	Scale float64 `json:"scale,omitempty"`
}

// NetworkSpec injects network behavior: every pull and push pays a sampled
// round-trip delay (the paper models RTT as a shifted exponential, §3.1),
// and LossRate of pushes vanish before reaching the server.
type NetworkSpec struct {
	MinRTTSec  float64 `json:"min_rtt_sec"`
	MeanRTTSec float64 `json:"mean_rtt_sec"`
	LossRate   float64 `json:"loss_rate,omitempty"`
	// ConnSetupSec is the connection-establishment cost (TCP+TLS handshake
	// and radio wake-up) a worker pays to reach the server. Per-request
	// transports pay it on every pull and every push; the streaming
	// transport pays it once per session — at the first call after joining
	// and again after a churn rejoin — which is exactly the poll-vs-push
	// latency asymmetry the stream-push scenario measures. 0 disables it,
	// leaving every pre-existing scenario's event timing untouched.
	ConnSetupSec float64 `json:"conn_setup_sec,omitempty"`
}

// RestartSpec hard-kills the server mid-run and restores it from the
// latest durable checkpoint (internal/persist) — the crash-recovery
// scenario. The kill is hard: no graceful drain, the in-flight aggregation
// window and every model update since the last checkpoint are lost, and
// workers holding models newer than the restored version must resync
// (version-conflict pushes → cache drop → full re-pull, counted in
// Counts.Resyncs). The kill lands at a deterministic virtual instant, so
// the whole recovery replays bit-for-bit per seed.
type RestartSpec struct {
	// AtSec is the virtual time of the hard kill; 0 disables restarts.
	AtSec float64 `json:"at_sec,omitempty"`
	// CheckpointEvery is the server's periodic checkpoint cadence in
	// aggregation windows (default 2 when AtSec is set). A checkpoint must
	// have been written before AtSec, or the restore fails the run — the
	// scenario author controls the cadence, so that is a profile bug.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// ChurnSpec makes workers leave mid-training and rejoin later with a cold
// model cache (their next pull is a full download).
type ChurnSpec struct {
	// LeaveProb is the per-completed-round probability of departing.
	LeaveProb float64 `json:"leave_prob,omitempty"`
	// OfflineMeanSec is the mean virtual offline duration before rejoining.
	OfflineMeanSec float64 `json:"offline_mean_sec,omitempty"`
}

// TreeSpec inserts a hierarchical aggregation tier between the fleet and
// the root server: Edges edge aggregators (internal/aggtree) each serve a
// slice of the workers (worker i reports to edge i mod Edges), fan every
// FanIn leaf gradients into one upstream push, and relay the root's model
// announces downstream. The root then sees O(Edges) pushes per aggregate
// window instead of O(Workers). In-process transport only: the tree's value
// is measured against the same virtual-clock event order as a flat run.
type TreeSpec struct {
	// Edges is the number of edge aggregators (0 disables the tree).
	Edges int `json:"edges,omitempty"`
	// FanIn is each edge's local window: leaf gradients aggregated per
	// upstream push (default 4).
	FanIn int `json:"fan_in,omitempty"`
}

// TenantSpec is one tenant of a multi-tenant run: a named slice of the base
// scenario, executed against its own isolated serving unit (internal/tenant)
// with authenticated workers, and optionally constrained by the unit's
// worker quota and DP epsilon budget — the noisy-neighbor knobs. Tenants
// run concurrently; each derives its own seed from the master seed and the
// tenant name, so one tenant's behavior can never perturb another's event
// stream — the isolation property GateTenantIsolation asserts.
type TenantSpec struct {
	// Name is the tenant's registry key (tenant.Config.Name rules apply).
	Name string `json:"name"`
	// Workers overrides the base scenario's fleet size for this tenant (0:
	// inherit the base value).
	Workers int `json:"workers,omitempty"`
	// MaxWorkers is the tenant's identity quota (tenant.Config.MaxWorkers):
	// a fleet larger than it has its surplus workers throttled with
	// attributed worker-cap rejects, not failed.
	MaxWorkers int `json:"max_workers,omitempty"`
	// Epsilon gives the tenant a DP budget at the accountant's default δ
	// and sampling ratio (tenant.Config; requires a dp(clip,σ) stage in the
	// tenant's pipeline): once admitted pushes compose past Epsilon the unit
	// goes read-only and further pushes are budget rejects.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Byzantine/Server, when non-nil, replace the base scenario's blocks
	// wholesale for this tenant.
	Byzantine *ByzantineSpec `json:"byzantine,omitempty"`
	Server    *ServerSpec    `json:"server,omitempty"`
}

// ServerSpec selects the server configuration through the same spec grammar
// as the fleet-server flags, so every pipeline/admission combination the
// live server supports is benchable. It declares only what scenarios vary;
// node.FromSpec compiles every other knob at its default (AdaSGD's 99.7
// percentile, the server's default batch size).
type ServerSpec struct {
	Arch         string  `json:"arch"`
	LearningRate float64 `json:"learning_rate"`
	K            int     `json:"k"`
	Stages       string  `json:"stages"`
	Aggregator   string  `json:"aggregator"`
	Admission    string  `json:"admission,omitempty"`
	DeltaHistory int     `json:"delta_history,omitempty"`
}

// Scenario is one composable load profile. The zero values of most fields
// have sensible defaults (see withDefaults); Name labels the result.
// Scenarios are pure descriptions: all randomness comes from the
// Runner's seed.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Workers is the fleet size; Rounds is how many protocol rounds each
	// worker attempts before retiring.
	Workers int `json:"workers"`
	Rounds  int `json:"rounds"`
	// Dataset sizing (synthetic TinyMNIST): samples per class for the
	// train and test splits, and the non-IID shards per worker (0: IID).
	TrainPerClass int `json:"train_per_class,omitempty"`
	TestPerClass  int `json:"test_per_class,omitempty"`
	ShardsPerUser int `json:"shards_per_user,omitempty"`
	// EvalEvery evaluates test accuracy after every EvalEvery accepted
	// pushes (0 disables the accuracy-vs-round series; a final evaluation
	// always runs).
	EvalEvery int `json:"eval_every,omitempty"`
	// ThinkTimeSec is the mean virtual idle time between a worker's rounds.
	ThinkTimeSec float64 `json:"think_time_sec,omitempty"`
	// CompressSpec names a spec-built uplink compression chain through
	// the internal/compress grammar — "topk(k)", "topk(k),q8",
	// "topk(k),f16" — the same specs fleet-worker -compress accepts.
	// Empty sends dense gradients.
	CompressSpec string `json:"compress_spec,omitempty"`
	// Codec selects the wire representation for wire transports: "flat"
	// (the binary codec, also what "" means) or "json". The in-process
	// transport has no wire and ignores it.
	Codec string `json:"codec,omitempty"`
	// FullPullFrac is the fraction of workers that never request delta
	// pulls, mixing both downlink modes in one run.
	FullPullFrac float64 `json:"full_pull_frac,omitempty"`

	Tiers     []Tier        `json:"tiers,omitempty"`
	Byzantine ByzantineSpec `json:"byzantine,omitempty"`
	Net       NetworkSpec   `json:"net"`
	Churn     ChurnSpec     `json:"churn,omitempty"`
	Restart   RestartSpec   `json:"restart,omitempty"`
	Tree      TreeSpec      `json:"tree,omitempty"`
	Server    ServerSpec    `json:"server"`
	// Tenants, when non-empty, turns the run multi-tenant: each entry is a
	// named sub-fleet executed against its own tenant serving unit (see
	// TenantSpec); the base scenario is every tenant's template. In-process
	// transport only.
	Tenants []TenantSpec `json:"tenants,omitempty"`
}

// withDefaults returns a copy with every unset knob at its default.
func (s Scenario) withDefaults() Scenario {
	if s.Workers <= 0 {
		s.Workers = 16
	}
	if s.Rounds <= 0 {
		s.Rounds = 8
	}
	if s.TrainPerClass <= 0 {
		s.TrainPerClass = 40
	}
	if s.TestPerClass <= 0 {
		s.TestPerClass = 6
	}
	if s.EvalEvery < 0 {
		s.EvalEvery = 0
	}
	if s.ThinkTimeSec <= 0 {
		s.ThinkTimeSec = 5
	}
	if len(s.Tiers) == 0 {
		s.Tiers = []Tier{{Name: "uniform", Weight: 1, SpeedFactor: 1}}
	} else {
		// Copy before defaulting: the receiver is a value, but the slice
		// shares its backing array with the built-in table's (or the caller's)
		// scenario — writing through it would mutate and race.
		s.Tiers = append([]Tier(nil), s.Tiers...)
	}
	for i := range s.Tiers {
		if s.Tiers[i].SpeedFactor <= 0 {
			s.Tiers[i].SpeedFactor = 1
		}
	}
	if s.Byzantine.Scale <= 0 {
		s.Byzantine.Scale = 1
	}
	if s.Net.MinRTTSec <= 0 {
		s.Net.MinRTTSec = 0.05
	}
	if s.Net.MeanRTTSec <= s.Net.MinRTTSec {
		s.Net.MeanRTTSec = s.Net.MinRTTSec + 0.15
	}
	if s.Churn.LeaveProb > 0 && s.Churn.OfflineMeanSec <= 0 {
		s.Churn.OfflineMeanSec = 30
	}
	if s.Restart.AtSec > 0 && s.Restart.CheckpointEvery <= 0 {
		s.Restart.CheckpointEvery = 2
	}
	if s.Tree.Edges > 0 && s.Tree.FanIn <= 0 {
		s.Tree.FanIn = 4
	}
	if s.Server.Arch == "" {
		s.Server.Arch = "softmax-mnist"
	}
	if s.Server.LearningRate == 0 {
		s.Server.LearningRate = 0.3
	}
	if s.Server.K <= 0 {
		s.Server.K = 1
	}
	if s.Server.Stages == "" {
		s.Server.Stages = "staleness"
	}
	if s.Server.Aggregator == "" {
		s.Server.Aggregator = "mean"
	}
	return s
}

// validate rejects impossible profiles before any work is done.
func (s Scenario) validate() error {
	if s.Byzantine.Fraction < 0 || s.Byzantine.Fraction > 1 {
		return fmt.Errorf("loadgen: byzantine fraction %g outside [0,1]", s.Byzantine.Fraction)
	}
	switch s.Byzantine.Attack {
	case "", AttackSignFlip, AttackLabelFlip, AttackScaledNoise:
	default:
		return fmt.Errorf("loadgen: unknown byzantine attack %q", s.Byzantine.Attack)
	}
	if s.Byzantine.Fraction > 0 && s.Byzantine.Attack == "" {
		return fmt.Errorf("loadgen: byzantine fraction %g needs an attack kind", s.Byzantine.Fraction)
	}
	if s.Net.LossRate < 0 || s.Net.LossRate >= 1 {
		return fmt.Errorf("loadgen: loss rate %g outside [0,1)", s.Net.LossRate)
	}
	if s.FullPullFrac < 0 || s.FullPullFrac > 1 {
		return fmt.Errorf("loadgen: full-pull fraction %g outside [0,1]", s.FullPullFrac)
	}
	if _, err := protocol.CodecByName(s.Codec); err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	if s.Churn.LeaveProb < 0 || s.Churn.LeaveProb > 1 {
		return fmt.Errorf("loadgen: churn leave probability %g outside [0,1]", s.Churn.LeaveProb)
	}
	if s.Restart.AtSec < 0 {
		return fmt.Errorf("loadgen: restart time %g is negative", s.Restart.AtSec)
	}
	if s.Tree.Edges < 0 {
		return fmt.Errorf("loadgen: tree edge count %d is negative", s.Tree.Edges)
	}
	total := 0.0
	for _, t := range s.Tiers {
		if t.Weight < 0 {
			return fmt.Errorf("loadgen: tier %q has negative weight", t.Name)
		}
		total += t.Weight
	}
	if total <= 0 {
		return fmt.Errorf("loadgen: tiers have no positive weight")
	}
	if len(s.Tenants) > 0 {
		if s.Restart.AtSec > 0 || s.Tree.Edges > 0 {
			return fmt.Errorf("loadgen: tenants cannot combine with restart or tree blocks (each tenant's sub-scenario may carry its own)")
		}
		seen := map[string]bool{}
		for _, ts := range s.Tenants {
			if ts.Name == "" {
				return fmt.Errorf("loadgen: tenant with empty name")
			}
			if seen[ts.Name] {
				return fmt.Errorf("loadgen: duplicate tenant %q", ts.Name)
			}
			seen[ts.Name] = true
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Built-in scenarios, by name. A custom scenario is a Scenario value handed
// to a Runner; nothing is registered.

// ByName looks a built-in scenario up.
func ByName(name string) (Scenario, error) {
	sc, err := spec.Lookup("scenario", scenarios, name)
	if err != nil {
		return Scenario{}, fmt.Errorf("loadgen: %w", err)
	}
	return sc, nil
}

// Names lists the built-in scenario names, sorted.
func Names() []string { return spec.Names(scenarios) }

var scenarios = map[string]Scenario{
	"uniform": {
		Name:        "uniform",
		Description: "homogeneous fleet, no faults: the clean-room baseline every other scenario is judged against",
		Workers:     24,
		Rounds:      10,
		EvalEvery:   40,
		Server:      ServerSpec{K: 2},
	},
	"straggler-churn": {
		Name: "straggler-churn",
		Description: "three speed tiers (1×/3×/10×) feeding I-Prof batch sizing, paper-model RTTs, " +
			"20% per-round churn forcing cold full pulls against a delta-serving server",
		Workers:       30,
		Rounds:        8,
		EvalEvery:     40,
		CompressSpec:  "topk(12)",
		FullPullFrac:  0.25,
		ShardsPerUser: 2,
		Tiers: []Tier{
			{Name: "fast", Weight: 0.4, SpeedFactor: 1},
			{Name: "slow", Weight: 0.4, SpeedFactor: 3},
			{Name: "straggler", Weight: 0.2, SpeedFactor: 10},
		},
		Net:   NetworkSpec{MinRTTSec: 7.1, MeanRTTSec: 8.45},
		Churn: ChurnSpec{LeaveProb: 0.2, OfflineMeanSec: 60},
		Server: ServerSpec{
			K:            2,
			Admission:    "iprof-time(3)",
			DeltaHistory: 8,
		},
	},
	"byzantine-krum": {
		Name: "byzantine-krum",
		Description: "20% sign-flip ×5 pushers against a Krum-aggregating server (K=5): " +
			"the §4 robustness claim under live fleet traffic",
		Workers:   25,
		Rounds:    16,
		EvalEvery: 40,
		Byzantine: ByzantineSpec{Fraction: 0.2, Attack: AttackSignFlip, Scale: 5},
		Server:    ServerSpec{K: 5, Aggregator: "krum(1)"},
	},
	"delta-mix": {
		Name: "delta-mix",
		Description: "downlink-focused profile: half the fleet delta-pulls against a deep delta history, " +
			"half full-pulls, top-k + f16 quantized sparse uplink keeping diffs wire-worthy",
		Workers: 20,
		Rounds:  10,
		// Half-precision values on the top-k uplink: the indices dominate
		// the arithmetic (the same coordinates step), so f16 costs almost
		// no accuracy while halving the value bytes.
		CompressSpec: "topk(8),f16",
		FullPullFrac: 0.5,
		Server:       ServerSpec{DeltaHistory: 8},
	},
	"server-restart": {
		Name: "server-restart",
		Description: "hard-kill the server mid-training and restore from the latest checkpoint: " +
			"every in-flight worker resyncs on its own (incarnation conflict → full re-pull) and accuracy " +
			"re-converges; a quota policy rides along so the admission clock replays deterministically too",
		Workers: 20,
		Rounds:  24,
		// A larger train/test split and a gentle learning rate keep the
		// accuracy trajectory smooth enough that "re-converges to within
		// 0.05 of the undisturbed run" is a meaningful, replayable gate
		// rather than SGD-oscillation roulette.
		TrainPerClass: 100,
		TestPerClass:  20,
		EvalEvery:     40,
		// Second-scale RTTs keep a meaningful slice of the fleet in-flight
		// (pulled, computing, not yet pushed) at any instant, so the kill
		// strands several old-incarnation gradients — the resync path under
		// real load, not a lucky single straggler.
		Net: NetworkSpec{MinRTTSec: 1, MeanRTTSec: 1.8},
		Server: ServerSpec{
			LearningRate: 0.1,
			K:            2,
			DeltaHistory: 8,
			Admission:    "per-worker-quota(6,60)",
		},
		// Kill mid-training; checkpoint every 8 windows, so the restore
		// genuinely loses progress (up to 8 model updates) and the restored
		// clock sits behind what in-flight workers hold.
		Restart: RestartSpec{AtSec: 40, CheckpointEvery: 8},
	},
	"stream-push": {
		Name: "stream-push",
		Description: "poll-vs-push head-to-head profile: a persistent-session streaming fleet whose model " +
			"updates arrive as server-pushed sparse-delta announces, against per-request polling that pays " +
			"connection setup on every pull and push — run it under both transports with the same seed to " +
			"measure the round-latency, connection-count and staleness win",
		Workers: 24,
		// Long enough that both transports' trajectories converge to the
		// same plateau: the head-to-head gate demands equal final accuracy,
		// so the win must come from latency, connections and staleness —
		// not from the polling twin being starved of steps.
		Rounds:    40,
		EvalEvery: 160,
		// Enough data and steps that BOTH transports saturate the task: the
		// head-to-head gate demands equal final accuracy (±0.01), so the
		// plateau must be interleaving-insensitive — the win comes from
		// latency, connections and pull staleness, not from starving the
		// polling twin of fresh models. The finer-grained test set keeps
		// the accuracy quantum (1/500) well below the gate width.
		TrainPerClass: 80,
		TestPerClass:  50,
		// Top-k sparse uplink keeps each drain's version-to-version delta
		// sparse enough to ride the announce frames; dense pushes would
		// change more than half the coordinates per window and degrade every
		// announce to a version-only notification. The q8 stage rides along
		// (one level byte per value instead of eight) and the flat binary
		// codec carries the whole exchange — the uplink-bytes headline the
		// wire-format work is gated on.
		CompressSpec: "topk(12),q8",
		Codec:        "flat",
		// Sub-second RTTs with a connection setup that dominates them: the
		// regime where a persistent session visibly beats per-request
		// connections (the polling twin pays ConnSetupSec twice per round).
		Net:    NetworkSpec{MinRTTSec: 0.05, MeanRTTSec: 0.2, ConnSetupSec: 0.3},
		Server: ServerSpec{K: 2, DeltaHistory: 8},
	},
	"agg-tree": {
		Name: "agg-tree",
		Description: "hierarchical aggregation tier: 3 edge aggregators fan leaf gradients 4:1 into the " +
			"root (K=3, one root window per full edge sweep), relaying model announces downstream — the " +
			"root sees Workers/FanIn pushes and accuracy must match the flat topology",
		Workers: 24,
		// Long enough (672 leaf pushes, 56 aggregate windows) that both
		// topologies converge: the within-0.02-of-flat gate compares settled
		// trajectories, not mid-climb snapshots.
		Rounds: 28,
		// Enough data and a fine-grained test split (quantum 1/1000) that
		// "within 0.02 of the flat topology" is a meaningful gate rather than
		// eval-quantum or small-sample SGD noise.
		TrainPerClass: 120,
		TestPerClass:  100,
		EvalEvery:     40,
		// Top-k sparse uplink keeps each root drain's version-to-version
		// delta under the announce threshold, so the relay announces carry
		// patchable deltas and the edges stay current between their own
		// forwards — dense pushes would blind the edges to most drains and
		// their forwards would arrive a version stale, re-damped by the root.
		CompressSpec: "topk(48)",
		Tree:         TreeSpec{Edges: 3, FanIn: 4},
		// Root K equals the edge count: one root window per sweep of edge
		// pushes, mirroring the flat Edges×FanIn aggregate window. The delta
		// history keeps relay announces sparse, so edges stay current without
		// full pulls. The learning rate is scaled down for the 12-gradient
		// K-sum windows (Equation 3 applies the sum, not the mean): the
		// default 0.3 would take 12× steps, and the within-0.02-of-flat gate
		// needs a smooth trajectory, not oscillation roulette.
		Server: ServerSpec{LearningRate: 0.02, K: 3, DeltaHistory: 8},
	},
	"multi-tenant": {
		Name: "multi-tenant",
		Description: "two fleets on one deployment: an honest victim tenant beside a noisy neighbor that " +
			"over-enrolls past its worker quota and spends its DP epsilon budget dry — the victim's " +
			"trajectory must be bit-for-bit what it runs solo, every throttle attributed in the " +
			"neighbor's per-tenant stats, zero protocol errors",
		Workers:   16,
		Rounds:    10,
		EvalEvery: 40,
		Server:    ServerSpec{K: 2},
		Tenants: []TenantSpec{
			// The victim inherits the base profile untouched: its sub-run is
			// the solo twin's scenario exactly, so the isolation gate can
			// demand bit-for-bit equality, not mere accuracy proximity.
			{Name: "victim"},
			// The noisy neighbor over-enrolls 24 identities against a quota
			// of 8 (surplus workers throttled on every pull) and pushes
			// amplified noise through a dp pipeline whose ε budget runs dry
			// mid-run, flipping the unit read-only — both throttles must
			// land in its per-tenant stats, not in protocol errors.
			// ε=0.95 exhausts after 59 composed pushes of the dp(1,1.2)
			// mechanism at the default q=0.01, δ=1e-5 — mid-run for the 80
			// pushes the 8 admitted workers attempt, so the run shows both
			// throttle kinds: quota rejects from pull one, budget rejects
			// once the ledger runs dry.
			{
				Name:       "noisy",
				Workers:    24,
				MaxWorkers: 8,
				Epsilon:    0.95,
				Byzantine:  &ByzantineSpec{Fraction: 0.3, Attack: AttackScaledNoise, Scale: 5},
				Server:     &ServerSpec{K: 2, Stages: "dp(1,1.2),staleness"},
			},
		},
	},
	"lossy-net": {
		Name: "lossy-net",
		Description: "hostile network: paper RTTs, 15% push loss and light churn — staleness and " +
			"retry behavior under packet loss",
		Workers:   24,
		Rounds:    8,
		EvalEvery: 40,
		Net:       NetworkSpec{MinRTTSec: 7.1, MeanRTTSec: 8.45, LossRate: 0.15},
		Churn:     ChurnSpec{LeaveProb: 0.1, OfflineMeanSec: 45},
		Server:    ServerSpec{K: 2},
	},
}
