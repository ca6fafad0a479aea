package loadgen

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// small returns a scaled-down copy of a built-in scenario for test speed.
func small(t *testing.T, name string, workers, rounds int) Scenario {
	t.Helper()
	sc, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sc.Workers = workers
	sc.Rounds = rounds
	sc.EvalEvery = 20
	return sc
}

func runScenario(t *testing.T, sc Scenario, seed int64) *Result {
	t.Helper()
	res, err := (&Runner{Scenario: sc, Seed: seed}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// resultDiff is Diff over the canonical renderings of two results.
func resultDiff(t *testing.T, a, b *Result) string {
	t.Helper()
	aj, err := a.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	return Diff(aj, bj)
}

func TestRegistryHasBuiltins(t *testing.T) {
	names := Names()
	for _, want := range []string{"uniform", "straggler-churn", "byzantine-krum", "delta-mix", "lossy-net", "server-restart", "stream-push", "agg-tree"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in scenario %q missing from %v", want, names)
		}
	}
	if _, err := ByName("no-such-scenario"); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("ByName on unknown = %v", err)
	}
	for key, sc := range scenarios {
		if sc.Name != key {
			t.Errorf("scenario %q is filed under %q", sc.Name, key)
		}
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{Name: "x", Byzantine: ByzantineSpec{Fraction: 0.5}},                      // no attack
		{Name: "x", Byzantine: ByzantineSpec{Fraction: 0.5, Attack: "dissolve"}},  // unknown attack
		{Name: "x", Net: NetworkSpec{MinRTTSec: 1, MeanRTTSec: 2, LossRate: 1.5}}, // loss ≥ 1
		{Name: "x", FullPullFrac: 2},                                              // frac > 1
		{Name: "x", Tiers: []Tier{{Name: "t", Weight: 0}}},                        // no weight
		{Name: "x", Churn: ChurnSpec{LeaveProb: 1.5}},                             // prob > 1
		{Name: "x", Server: ServerSpec{Arch: "no-such-arch"}},                     // bad arch
		{Name: "x", Server: ServerSpec{Aggregator: "no-such-agg"}},                // bad spec
		{Name: "x", Server: ServerSpec{Admission: "no-such-policy(1)"}},           // bad admission
		{Name: "x", Server: ServerSpec{LearningRate: -0.1}},                       // negative rate (only 0 is unset)
	}
	for i, sc := range bad {
		if _, err := (&Runner{Scenario: sc, Seed: 1}).Run(context.Background()); err == nil {
			t.Errorf("case %d: invalid scenario %+v ran without error", i, sc)
		}
	}
}

func TestUniformConvergesWithZeroErrors(t *testing.T) {
	res := runScenario(t, small(t, "uniform", 12, 8), 1)
	t.Logf("uniform: pushes=%d throughput=%.3f/s acc=%.3f stale(mean=%.2f p99=%d) virt=%.1fs",
		res.Counts.Pushes, res.ThroughputPerSec, res.FinalAccuracy,
		res.Staleness.Mean, res.Staleness.P99, res.VirtualDurationSec)
	if res.Counts.ProtocolErrors != 0 {
		t.Fatalf("protocol errors: %d (%v)", res.Counts.ProtocolErrors, res.Counts.ErrorSamples)
	}
	if res.Counts.Pushes != 12*8 {
		t.Fatalf("pushes = %d, want %d (no loss, no rejects configured)", res.Counts.Pushes, 12*8)
	}
	if res.FinalAccuracy < 0.5 {
		t.Fatalf("final accuracy %.3f: did not converge", res.FinalAccuracy)
	}
	if res.ThroughputPerSec <= 0 || res.VirtualDurationSec <= 0 {
		t.Fatalf("throughput=%v duration=%v", res.ThroughputPerSec, res.VirtualDurationSec)
	}
	if len(res.Accuracy) == 0 {
		t.Fatal("no accuracy series despite EvalEvery")
	}
	if res.Server.GradientsIn != res.Counts.Pushes {
		t.Fatalf("server saw %d gradients, harness pushed %d", res.Server.GradientsIn, res.Counts.Pushes)
	}
}

// TestDeterministicReplay is the acceptance criterion: two runs of the same
// seed render to the same bytes.
// The quota scenario covers the injected virtual clock (a wall-clock-read
// quota policy would break replay), and the restart scenario covers the
// checkpoint/restore/resync cycle.
func TestDeterministicReplay(t *testing.T) {
	quota := small(t, "uniform", 8, 6)
	quota.Server.Admission = "per-worker-quota(2,20)"
	restart := small(t, "server-restart", 10, 6)
	restart.Restart = RestartSpec{AtSec: 15, CheckpointEvery: 1}

	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"straggler-churn", small(t, "straggler-churn", 10, 5)},
		{"quota-policy", quota},
		{"server-restart", restart},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := runScenario(t, tc.sc, 42)
			b := runScenario(t, tc.sc, 42)
			if diff := resultDiff(t, a, b); diff != "" {
				t.Fatalf("same-seed runs differ at %s", diff)
			}
			// A different seed must actually change the run (the engine is
			// not ignoring its randomness).
			c := runScenario(t, tc.sc, 43)
			if diff := resultDiff(t, a, c); diff == "" {
				t.Fatal("different seeds produced identical results")
			}
		})
	}
}

// TestQuotaScenarioUsesVirtualClock: the quota windows must be decided by
// virtual time — over a 6-round run with ~5s virtual think time, a
// 2-per-20-virtual-seconds quota must reject some rounds even though the
// whole run takes well under 20 *wall* seconds.
func TestQuotaScenarioUsesVirtualClock(t *testing.T) {
	sc := small(t, "uniform", 4, 6)
	sc.Server.Admission = "per-worker-quota(2,20)"
	res := runScenario(t, sc, 11)
	if res.Counts.Rejected == 0 {
		t.Fatal("virtual-clock quota never rejected: the policy is reading the wall clock")
	}
	for policy := range res.Server.RejectsByPolicy {
		if !strings.HasPrefix(policy, "per-worker-quota") {
			t.Fatalf("reject attributed to %q", policy)
		}
	}
	// And workers keep getting admitted again once virtual windows roll
	// over: accepted rounds must also exist.
	if res.Counts.Accepted == 0 {
		t.Fatal("quota starved the whole run")
	}
}

// TestServerRestartRecovers is the crash-recovery acceptance criterion:
// hard-kill mid-training, restore from the latest checkpoint, and the live
// fleet resyncs without operator action — zero permanent protocol errors,
// every worker finishes its rounds, and final accuracy lands within 0.05
// of the identical run without the restart.
func TestServerRestartRecovers(t *testing.T) {
	sc, err := ByName("server-restart")
	if err != nil {
		t.Fatal(err)
	}
	res := runScenario(t, sc, 42)
	t.Logf("server-restart: %+v restored_v=%d ckpts=%d acc=%.3f",
		res.Counts, res.Server.RestoredVersion, res.Server.Checkpoints, res.FinalAccuracy)

	if res.Counts.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Counts.Restarts)
	}
	if res.Counts.Resyncs == 0 {
		t.Fatal("no worker resynced: the kill was invisible (restore too new, or no in-flight pushes)")
	}
	if res.Counts.ProtocolErrors != 0 {
		t.Fatalf("permanent protocol errors: %d (%v)", res.Counts.ProtocolErrors, res.Counts.ErrorSamples)
	}
	if res.Server.RestoredVersion == 0 {
		t.Fatal("server block does not show a restored version")
	}
	// Every worker recovered and finished: each of the Workers×Rounds
	// rounds ended as an accepted push or a quota rejection — none were
	// abandoned to a wedge (resync retries don't consume rounds).
	total := res.Workers * res.Rounds
	if res.Counts.Pushes+res.Counts.Rejected != total {
		t.Fatalf("rounds lost to the restart: pushes %d + rejected %d != %d (%+v)",
			res.Counts.Pushes, res.Counts.Rejected, total, res.Counts)
	}
	// Accepted pulls are either acked pushes or bounded resync retries.
	if res.Counts.Accepted != res.Counts.Pushes+res.Counts.Resyncs {
		t.Fatalf("pull/push accounting broken: %+v", res.Counts)
	}

	// Accuracy must re-converge to within 0.05 of the undisturbed twin.
	noRestart := sc
	noRestart.Restart = RestartSpec{}
	base := runScenario(t, noRestart, 42)
	diff := base.FinalAccuracy - res.FinalAccuracy
	if diff < 0 {
		diff = -diff
	}
	t.Logf("accuracy: restart=%.4f no-restart=%.4f |diff|=%.4f", res.FinalAccuracy, base.FinalAccuracy, diff)
	if diff > 0.05 {
		t.Fatalf("restart cost %.4f accuracy (limit 0.05)", diff)
	}
	// The restored server must actually have lost progress (it booted from
	// a checkpoint older than the kill point) yet kept checkpointing.
	if res.Server.Checkpoints == 0 {
		t.Fatal("restored server wrote no further checkpoints")
	}
}

// TestServerRestartOverHTTP: the recovery story is transport-invariant —
// the restored backend swaps in under the live HTTP handler and the wire
// protocol carries the version conflicts and full re-pulls.
func TestServerRestartOverHTTP(t *testing.T) {
	sc := small(t, "server-restart", 10, 6)
	sc.Restart = RestartSpec{AtSec: 15, CheckpointEvery: 1}
	inproc := runScenario(t, sc, 7)
	httpRes, err := (&Runner{Scenario: sc, Seed: 7, Transport: TransportHTTP}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if httpRes.Counts.Restarts != 1 || httpRes.Counts.Resyncs == 0 {
		t.Fatalf("http restart run: %+v", httpRes.Counts)
	}
	if httpRes.Counts.ProtocolErrors != 0 {
		t.Fatalf("http run errors: %v", httpRes.Counts.ErrorSamples)
	}
	if inproc.FinalAccuracy != httpRes.FinalAccuracy ||
		inproc.Counts.Pushes != httpRes.Counts.Pushes ||
		inproc.Counts.Resyncs != httpRes.Counts.Resyncs ||
		inproc.Server.RestoredVersion != httpRes.Server.RestoredVersion {
		t.Fatalf("transports diverge: %+v (acc %.4f) vs %+v (acc %.4f)",
			inproc.Counts, inproc.FinalAccuracy, httpRes.Counts, httpRes.FinalAccuracy)
	}
}

// TestHTTPTransportMatchesInProc: the default wire round-trips float64 exactly,
// so the deterministic projection is transport-invariant.
func TestHTTPTransportMatchesInProc(t *testing.T) {
	sc := small(t, "uniform", 6, 4)
	inproc := runScenario(t, sc, 7)
	httpRes, err := (&Runner{Scenario: sc, Seed: 7, Transport: TransportHTTP}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if httpRes.Counts.ProtocolErrors != 0 {
		t.Fatalf("http run errors: %v", httpRes.Counts.ErrorSamples)
	}
	// Transport is echoed in the result, so compare field-by-field on the
	// deterministic learning outcomes instead of full JSON.
	if inproc.FinalAccuracy != httpRes.FinalAccuracy {
		t.Fatalf("accuracy differs across transports: %v vs %v", inproc.FinalAccuracy, httpRes.FinalAccuracy)
	}
	if inproc.Counts.Pushes != httpRes.Counts.Pushes || inproc.Staleness.Mean != httpRes.Staleness.Mean {
		t.Fatalf("counts/staleness differ: %+v vs %+v", inproc.Counts, httpRes.Counts)
	}
	if inproc.Server.ModelVersion != httpRes.Server.ModelVersion {
		t.Fatalf("model version differs: %d vs %d", inproc.Server.ModelVersion, httpRes.Server.ModelVersion)
	}
}

func TestStragglerChurnBehaviors(t *testing.T) {
	res := runScenario(t, small(t, "straggler-churn", 12, 6), 3)
	t.Logf("straggler-churn: %+v stale p99=%d acc=%.3f", res.Counts, res.Staleness.P99, res.FinalAccuracy)
	if res.Counts.ProtocolErrors != 0 {
		t.Fatalf("protocol errors: %v", res.Counts.ErrorSamples)
	}
	if res.Counts.Departures == 0 || res.Counts.Rejoins != res.Counts.Departures {
		t.Fatalf("churn did not engage: %+v", res.Counts)
	}
	if res.Counts.DeltaPulls == 0 {
		t.Fatal("no delta pulls despite delta-serving server and caching workers")
	}
	// Cold rejoins and the FullPullFrac cohort both force full downloads.
	if res.Counts.FullPulls <= res.Counts.Departures {
		t.Fatalf("full pulls (%d) should exceed departures (%d)", res.Counts.FullPulls, res.Counts.Departures)
	}
	if len(res.Server.AdmissionPolicies) == 0 {
		t.Fatal("admission chain missing from server block")
	}
}

func TestByzantineKrumResists(t *testing.T) {
	krum := small(t, "byzantine-krum", 15, 16)
	mean := krum
	mean.Server.Aggregator = "mean"
	krumRes := runScenario(t, krum, 5)
	meanRes := runScenario(t, mean, 5)
	t.Logf("krum acc=%.3f, mean-under-attack acc=%.3f", krumRes.FinalAccuracy, meanRes.FinalAccuracy)
	if krumRes.Counts.ProtocolErrors != 0 {
		t.Fatalf("krum run errors: %v", krumRes.Counts.ErrorSamples)
	}
	if krumRes.FinalAccuracy < 0.4 {
		t.Fatalf("krum collapsed under 20%% sign-flip: acc=%.3f", krumRes.FinalAccuracy)
	}
	if krumRes.FinalAccuracy <= meanRes.FinalAccuracy {
		t.Fatalf("krum (%.3f) should beat mean (%.3f) under attack", krumRes.FinalAccuracy, meanRes.FinalAccuracy)
	}
}

func TestLossyNetLosesPushes(t *testing.T) {
	res := runScenario(t, small(t, "lossy-net", 12, 6), 9)
	if res.Counts.LostPushes == 0 {
		t.Fatal("15% loss produced zero lost pushes")
	}
	if res.Counts.Pushes+res.Counts.LostPushes+res.Counts.ProtocolErrors != res.Counts.Accepted {
		t.Fatalf("push accounting broken: %+v", res.Counts)
	}
	if res.Server.GradientsIn != res.Counts.Pushes {
		t.Fatalf("server saw %d gradients, %d acked: lost pushes leaked through", res.Server.GradientsIn, res.Counts.Pushes)
	}
}

func TestRejectsAttributedByPolicy(t *testing.T) {
	sc := small(t, "uniform", 4, 6)
	// A 1-task-per-5-minute quota makes every round after the first per
	// worker reject with attribution.
	sc.Server.Admission = "per-worker-quota(1,300)"
	res := runScenario(t, sc, 11)
	if res.Counts.Rejected == 0 {
		t.Fatal("quota produced no rejections")
	}
	attributed := 0
	for policy, n := range res.Server.RejectsByPolicy {
		if !strings.HasPrefix(policy, "per-worker-quota") {
			t.Fatalf("reject attributed to unexpected policy %q", policy)
		}
		attributed += n
	}
	if attributed != res.Counts.Rejected {
		t.Fatalf("rejects not attributed: %+v vs %d", res.Server.RejectsByPolicy, res.Counts.Rejected)
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&Runner{Scenario: small(t, "uniform", 4, 3), Seed: 1}).Run(ctx); err == nil {
		t.Fatal("cancelled context must abort the run")
	}
}

// TestDiffIsIdentity: a same-seed replay has no difference; a change to any
// field, however small and in whichever direction, or another seed, is
// named by its first differing line.
func TestDiffIsIdentity(t *testing.T) {
	base := runScenario(t, small(t, "uniform", 6, 4), 21)
	same := runScenario(t, small(t, "uniform", 6, 4), 21)
	edited := func(edit func(*Result)) *Result {
		cp := *same
		edit(&cp)
		return &cp
	}
	wire := func(r *Result, uplink int64) *Result {
		cp := *r
		cp.TransportStats = &TransportBlock{WireUplinkBytes: uplink}
		return &cp
	}
	for _, tc := range []struct {
		name string
		a, b *Result
		want string // in the first differing line; "" means identical
	}{
		{"same-seed", base, same, ""},
		{"throughput-10pct-lower", base, edited(func(r *Result) { r.ThroughputPerSec *= 0.9 }), `"throughput_pushes_per_sec"`},
		{"accuracy", base, edited(func(r *Result) { r.FinalAccuracy -= 0.5 }), `"final_accuracy"`},
		{"protocol-errors", base, edited(func(r *Result) { r.Counts.ProtocolErrors = 3 }), `"protocol_errors"`},
		{"uplink-halved", wire(base, 1000), wire(same, 500), `"wire_uplink_bytes"`},
		{"other-seed", base, runScenario(t, small(t, "uniform", 6, 4), 22), `"seed"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			diff := resultDiff(t, tc.a, tc.b)
			if tc.want == "" && diff != "" {
				t.Fatalf("want identical, got first difference at %s", diff)
			}
			if tc.want != "" && !strings.Contains(diff, tc.want) {
				t.Fatalf("first difference %q does not name %s", diff, tc.want)
			}
		})
	}
}

// TestDiffPastEitherEnd: a rendering cut short or extended differs at the
// first line one side lacks, in either order, without indexing past it.
func TestDiffPastEitherEnd(t *testing.T) {
	full := []byte("{\n  \"seed\": 42\n}\n")
	for _, tc := range []struct {
		name string
		a, b []byte
		want string
	}{
		{"truncated", full, full[:len(full)-1], "line 4:\n-\n+(end of input)"},
		{"extended", full, append(full[:len(full):len(full)], "{}\n"...), "line 4:\n-\n+{}"},
		{"empty", nil, full, "line 1:\n-\n+{"},
	} {
		for _, swap := range []bool{false, true} {
			a, b := tc.a, tc.b
			if swap {
				a, b = b, a
			}
			diff := Diff(a, b)
			if diff == "" || (!swap && diff != tc.want) {
				t.Errorf("%s (swapped %v): Diff = %q, want %q", tc.name, swap, diff, tc.want)
			}
		}
	}
}

// TestResultFileRoundTrip: the file WriteFile leaves is the canonical
// rendering, and decoding it strictly and rendering again gives it back.
func TestResultFileRoundTrip(t *testing.T) {
	res := runScenario(t, small(t, "delta-mix", 6, 4), 2)
	path := t.TempDir() + "/BENCH_delta-mix.json"
	if err := res.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if diff := Diff(want, file); diff != "" {
		t.Fatalf("file is not the canonical rendering: first difference at %s", diff)
	}
	back, err := decodeStrict(file)
	if err != nil {
		t.Fatal(err)
	}
	again, err := back.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if diff := Diff(file, again); diff != "" {
		t.Fatalf("result changed across the file round trip: first difference at %s", diff)
	}
}

// TestConcurrentRunsDoNotMutateRegistry guards the withDefaults copy: two
// concurrent runs of one shared scenario value with zero-valued tier
// defaults must not write through the shared Tiers backing array (-race)
// nor change the value.
func TestConcurrentRunsDoNotMutateRegistry(t *testing.T) {
	sc := Scenario{
		Name:    "shared-tiers",
		Workers: 3, Rounds: 2,
		Tiers: []Tier{{Name: "t", Weight: 1, SpeedFactor: 0}}, // defaulted per run
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if _, err := (&Runner{Scenario: sc, Seed: seed}).Run(context.Background()); err != nil {
				t.Error(err)
			}
		}(int64(i))
	}
	wg.Wait()
	if sc.Tiers[0].SpeedFactor != 0 {
		t.Fatalf("shared scenario mutated: SpeedFactor = %v", sc.Tiers[0].SpeedFactor)
	}
}

// TestStreamTransportMatchesInProc: the persistent-session transport carries
// the same deterministic projection — with free connection setup the learning
// outcome is identical to in-process, while the session stats prove the
// poll-vs-push shape: one dial per worker, server-pushed announces flowing.
func TestStreamTransportMatchesInProc(t *testing.T) {
	sc := small(t, "uniform", 6, 4)
	// Sparse top-k uplinks keep the v−1→v model diff sparse, so broadcast
	// announces carry an absorbable delta (dense gradients exceed Diff's
	// half-vector bound and the announce degrades to delta-less).
	sc.CompressSpec = "topk(8)"
	inproc := runScenario(t, sc, 7)
	strRes, err := (&Runner{Scenario: sc, Seed: 7, Transport: TransportStream}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if strRes.Counts.ProtocolErrors != 0 {
		t.Fatalf("stream run errors: %v", strRes.Counts.ErrorSamples)
	}
	if inproc.FinalAccuracy != strRes.FinalAccuracy {
		t.Fatalf("accuracy differs across transports: %v vs %v", inproc.FinalAccuracy, strRes.FinalAccuracy)
	}
	if inproc.Counts.Pushes != strRes.Counts.Pushes || inproc.Staleness.Mean != strRes.Staleness.Mean {
		t.Fatalf("counts/staleness differ: %+v vs %+v", inproc.Counts, strRes.Counts)
	}
	if inproc.Server.ModelVersion != strRes.Server.ModelVersion {
		t.Fatalf("model version differs: %d vs %d", inproc.Server.ModelVersion, strRes.Server.ModelVersion)
	}
	ts := strRes.TransportStats
	if ts == nil {
		t.Fatal("stream run carries no transport stats block")
	}
	t.Logf("stream stats: %+v", ts)
	if ts.Connections != int64(sc.Workers) || ts.ConnsPerWorker != 1 {
		t.Fatalf("stream dialed %d connections (%.2f/worker), want one persistent session per worker",
			ts.Connections, ts.ConnsPerWorker)
	}
	if ts.WireUplinkBytes <= 0 || ts.WireDownlinkBytes <= 0 {
		t.Fatalf("wire byte counters did not move: up=%d down=%d", ts.WireUplinkBytes, ts.WireDownlinkBytes)
	}
	if ts.Announces == 0 {
		t.Fatal("no server-pushed model announces were delivered")
	}
	if ts.Refreshes == 0 {
		t.Fatal("no announce was absorbed into a worker cache")
	}
}

// TestStreamDeterministicReplay: churn (sessions torn down and redialed) plus
// priced connection setup over the stream transport still replays
// byte-for-byte, and a different seed still changes the run.
func TestStreamDeterministicReplay(t *testing.T) {
	sc := small(t, "straggler-churn", 10, 5)
	sc.Net.ConnSetupSec = 0.2
	run := func(seed int64) *Result {
		res, err := (&Runner{Scenario: sc, Seed: seed, Transport: TransportStream}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(42), run(42)
	if diff := resultDiff(t, a, b); diff != "" {
		t.Fatalf("same-seed stream runs differ at %s", diff)
	}
	if diff := resultDiff(t, a, run(43)); diff == "" {
		t.Fatal("different seeds produced identical stream runs")
	}
	// Churned workers redial: strictly more dials than workers.
	if a.TransportStats == nil || a.TransportStats.Connections <= int64(sc.Workers) {
		t.Fatalf("churn should force redials beyond the initial %d sessions: %+v", sc.Workers, a.TransportStats)
	}
}

// TestServerRestartOverStream: the PR-5 crash-recovery cycle — checkpoint,
// hard kill, incarnation bump, worker resync — is carried unchanged by the
// persistent-session transport, and lands on the same numbers as in-process.
func TestServerRestartOverStream(t *testing.T) {
	sc := small(t, "server-restart", 10, 6)
	sc.Restart = RestartSpec{AtSec: 15, CheckpointEvery: 1}
	inproc := runScenario(t, sc, 7)
	strRes, err := (&Runner{Scenario: sc, Seed: 7, Transport: TransportStream}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if strRes.Counts.Restarts != 1 || strRes.Counts.Resyncs == 0 {
		t.Fatalf("stream restart run: %+v", strRes.Counts)
	}
	if strRes.Counts.ProtocolErrors != 0 {
		t.Fatalf("stream run errors: %v", strRes.Counts.ErrorSamples)
	}
	if inproc.FinalAccuracy != strRes.FinalAccuracy ||
		inproc.Counts.Pushes != strRes.Counts.Pushes ||
		inproc.Counts.Resyncs != strRes.Counts.Resyncs ||
		inproc.Server.RestoredVersion != strRes.Server.RestoredVersion {
		t.Fatalf("transports diverge: %+v (acc %.4f) vs %+v (acc %.4f)",
			inproc.Counts, inproc.FinalAccuracy, strRes.Counts, strRes.FinalAccuracy)
	}
	// The restored instance announces its drains to the live sessions too.
	// With a checkpoint every window the dead instance drained exactly
	// RestoredVersion times, and each drain reached each session at most
	// once; every announce past that bound came from the successor.
	dead := int64(strRes.Server.RestoredVersion * strRes.Workers)
	if got := strRes.TransportStats.Announces; got <= dead {
		t.Fatalf("announces %d, at most the %d the killed instance could send: the restored instance announces to no session",
			got, dead)
	}
}

// TestFailedRunClosesTheRoot: a run that fails after the root has booted
// (here on the first worker's compressor) still stops the root's
// background checkpoint writer.
func TestFailedRunClosesTheRoot(t *testing.T) {
	sc := small(t, "server-restart", 4, 2)
	sc.CompressSpec = "bogus(1)"
	if _, err := (&Runner{Scenario: sc, Seed: 1}).Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "bogus") {
		t.Fatalf("run with an unknown compressor: %v, want its error", err)
	}
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("ckptWriter")) {
			t.Fatalf("the failed run left a checkpoint writer running:\n%s", g)
		}
	}
}

// TestCompareTransportsRejectsMismatch: the poll-vs-push comparison refuses
// apples-to-oranges inputs instead of emitting a misleading headline.
func TestCompareTransportsRejectsMismatch(t *testing.T) {
	stream := &Result{Scenario: "uniform", Seed: 1, Transport: string(TransportStream)}
	for _, tc := range []struct {
		name string
		twin *Result
	}{
		{"seed", &Result{Scenario: "uniform", Seed: 2, Transport: string(TransportHTTP)}},
		{"scenario", &Result{Scenario: "lossy-net", Seed: 1, Transport: string(TransportHTTP)}},
		{"same-transport", &Result{Scenario: "uniform", Seed: 1, Transport: string(TransportStream)}},
	} {
		if _, err := CompareTransports(stream, tc.twin); err == nil {
			t.Errorf("%s mismatch accepted", tc.name)
		}
	}
	if err := GateTransportWin(stream); err == nil {
		t.Error("gate passed a result with no embedded comparison")
	}
}
