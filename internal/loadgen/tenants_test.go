package loadgen

import (
	"context"
	"strings"
	"testing"
)

func TestTenantSeedDerivation(t *testing.T) {
	if tenantSeed(42, "victim") != tenantSeed(42, "victim") {
		t.Error("tenantSeed not deterministic")
	}
	if tenantSeed(42, "victim") == tenantSeed(42, "noisy") {
		t.Error("distinct tenant names derived the same seed")
	}
	if tenantSeed(42, "victim") == tenantSeed(43, "victim") {
		t.Error("distinct master seeds derived the same tenant seed")
	}
	if s := tenantSeed(42, "victim"); s < 0 {
		t.Errorf("tenantSeed(42, victim) = %d, want non-negative for a non-negative master", s)
	}
}

func TestTenantSubScenarioOverrides(t *testing.T) {
	base := small(t, "uniform", 8, 4)
	ts := TenantSpec{
		Name: "n", Workers: 3,
		Byzantine: &ByzantineSpec{Fraction: 0.5, Attack: AttackSignFlip},
		Server:    &ServerSpec{K: 2, Stages: "dp(1,1.2),staleness"},
	}
	sub, seed := TenantSubScenario(base, ts, 42)
	if sub.Name != base.Name+":n" || sub.Workers != 3 || sub.Rounds != base.Rounds {
		t.Errorf("sub = %s/%d workers/%d rounds, want %s:n/3/%d", sub.Name, sub.Workers, sub.Rounds, base.Name, base.Rounds)
	}
	if sub.Byzantine.Attack != AttackSignFlip || sub.Server.Stages != "dp(1,1.2),staleness" {
		t.Errorf("overrides not applied: %+v %+v", sub.Byzantine, sub.Server)
	}
	if len(sub.Tenants) != 0 {
		t.Error("sub-scenario must drop the Tenants block")
	}
	if seed != tenantSeed(42, "n") {
		t.Errorf("seed = %d, want tenantSeed(42, n)", seed)
	}

	// An empty spec keeps the base dimensions: the tenant runs the base
	// scenario unchanged under its own derived seed.
	plain, _ := TenantSubScenario(base, TenantSpec{Name: "p"}, 42)
	if plain.Workers != base.Workers || plain.Rounds != base.Rounds || plain.Server != base.Server {
		t.Errorf("empty spec changed base dimensions: %+v", plain)
	}
}

// TestSingleTenantPassThrough is the tenant-layer pass-through gate: a
// single unconstrained tenant routed through authentication and enforcement
// must produce bit-for-bit the result of the same scenario and seed run
// directly against a server.
func TestSingleTenantPassThrough(t *testing.T) {
	sc := small(t, "uniform", 6, 4)
	sc.Name = "tenanted-uniform"
	sc.Tenants = []TenantSpec{{Name: "only"}}

	res, err := (&Runner{Scenario: sc, Seed: 11}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 1 {
		t.Fatalf("tenant blocks = %d, want 1", len(res.Tenants))
	}
	tr := res.Tenants[0]
	if tr.Stats == nil || tr.Stats.AuthRejects != 0 || tr.Stats.Workers != 6 {
		t.Fatalf("tenant stats = %+v, want 6 workers, 0 auth rejects", tr.Stats)
	}

	sub, seed := TenantSubScenario(sc, sc.Tenants[0], 11)
	solo, err := (&Runner{Scenario: sub, Seed: seed}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := CompareTenantSolo(tr, solo)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Identical || cmp.AccuracyDelta != 0 {
		t.Fatalf("tenant layer perturbed the run: identical=%v delta=%+.4f", cmp.Identical, cmp.AccuracyDelta)
	}
	if res.FinalAccuracy != solo.FinalAccuracy {
		t.Errorf("parent accuracy %f != solo %f for a single tenant", res.FinalAccuracy, solo.FinalAccuracy)
	}
}

// TestNoisyNeighborIsolation is a scaled-down run of the multi-tenant
// scenario's contract: the victim stays bit-for-bit identical to its solo
// twin while the neighbor is throttled by quota and budget, with every
// rejection attributed in per-tenant stats and none surfacing as protocol
// errors.
func TestNoisyNeighborIsolation(t *testing.T) {
	sc := small(t, "uniform", 6, 4)
	sc.Name = "mini-multi-tenant"
	sc.Server.K = 2
	sc.Tenants = []TenantSpec{
		{Name: "victim"},
		// ε=0.85 exhausts after one applied dp(1,1.2) push at the default
		// q=0.01, δ=1e-5 — the tightest budget that still charges.
		{Name: "noisy", Workers: 8, MaxWorkers: 3, Epsilon: 0.85,
			Byzantine: &ByzantineSpec{Fraction: 0.4, Attack: AttackScaledNoise, Scale: 5},
			Server:    &ServerSpec{K: 2, Stages: "dp(1,1.2),staleness"}},
	}

	res, err := (&Runner{Scenario: sc, Seed: 5}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.ProtocolErrors != 0 {
		t.Fatalf("protocol errors: %d (%v) — enforcement rejects must not count", res.Counts.ProtocolErrors, res.Counts.ErrorSamples)
	}
	if res.Counts.TenantRejects == 0 {
		t.Fatal("no tenant rejects recorded for an over-quota, budget-capped neighbor")
	}

	byName := map[string]*TenantResult{}
	for _, tr := range res.Tenants {
		byName[tr.Name] = tr
	}
	noisy := byName["noisy"]
	if noisy.Stats.Workers != 3 || noisy.Stats.WorkerCapRejects == 0 {
		t.Errorf("noisy quota: workers %d (want 3), cap_rejects %d (want > 0)", noisy.Stats.Workers, noisy.Stats.WorkerCapRejects)
	}
	if !noisy.Stats.BudgetExhausted || noisy.Stats.BudgetRejects == 0 {
		t.Errorf("noisy budget: exhausted=%v rejects=%d, want exhausted with rejects", noisy.Stats.BudgetExhausted, noisy.Stats.BudgetRejects)
	}

	// The victim's sub-run must be exactly its solo twin.
	victim := byName["victim"]
	sub, seed := TenantSubScenario(sc, sc.Tenants[0], 5)
	solo, err := (&Runner{Scenario: sub, Seed: seed}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	victim.Solo, err = CompareTenantSolo(victim, solo)
	if err != nil {
		t.Fatal(err)
	}
	if !victim.Solo.Identical {
		t.Fatal("victim sub-run diverged from its solo twin — neighbor leaked into its stream")
	}

	// With the comparison embedded the isolation gate must pass whole.
	if err := GateTenantIsolation(res); err != nil {
		t.Fatalf("isolation gate: %v", err)
	}
}

func TestMultiTenantRejectsIncompatibleSpecs(t *testing.T) {
	cases := []Scenario{
		{Name: "x", Tenants: []TenantSpec{{Name: "a"}}, Restart: RestartSpec{AtSec: 1}},
		{Name: "x", Tenants: []TenantSpec{{Name: "a"}, {Name: "a"}}},
		{Name: "x", Tenants: []TenantSpec{{Name: ""}}},
	}
	for i, sc := range cases {
		if _, err := (&Runner{Scenario: sc, Seed: 1}).Run(context.Background()); err == nil {
			t.Errorf("case %d: invalid multi-tenant scenario ran without error", i)
		}
	}
	// Tenant sub-runs cannot recursively declare tenants, and multi-tenant
	// runs are in-process/virtual only.
	sc := Scenario{Name: "x", Workers: 2, Rounds: 1, Tenants: []TenantSpec{{Name: "a"}}}
	if _, err := (&Runner{Scenario: sc, Seed: 1, Transport: TransportHTTP}).Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "in-process") {
		t.Errorf("HTTP multi-tenant: got %v, want in-process-only error", err)
	}
}
