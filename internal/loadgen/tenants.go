package loadgen

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"

	"fleet/internal/protocol"
	"fleet/internal/service"
	"fleet/internal/tenant"
)

// Multi-tenant runs: each TenantSpec becomes its own complete sub-run — a
// derived scenario with a derived seed, executed concurrently against a
// one-tenant root whose unit node.FromSpec compiles as for a fleet-server
// -tenant deployment, so every call flows through the real enforcement
// chain with real minted tokens. Units share nothing, and each tenant's
// random streams derive from (master seed ⊕ tenant-name hash) — so a
// neighbor's behavior, however noisy, cannot perturb another tenant's event
// order. That is the isolation property the noisy-neighbor scenario gates
// on: an unconstrained tenant's sub-result must be bit-for-bit what it
// produces running solo.

// tenantSeed derives a tenant's sub-run seed from the master seed and the
// tenant name (FNV-1a, masked non-negative): stable across runs, distinct
// across tenants, independent of spec order.
func tenantSeed(master int64, name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return master ^ int64(h.Sum64()&^(uint64(1)<<63))
}

// TenantSubScenario returns the standalone scenario tenant ts of sc runs —
// the base scenario with the tenant's overrides applied and the Tenants
// block dropped — plus the tenant's derived seed. A solo twin (the
// isolation baseline) is exactly a Runner over this scenario and seed with
// no tenant layer.
func TenantSubScenario(sc Scenario, ts TenantSpec, masterSeed int64) (Scenario, int64) {
	sub := sc
	sub.Tenants = nil
	sub.Name = sc.Name + ":" + ts.Name
	sub.Description = "tenant " + ts.Name + " slice of " + sc.Name
	if ts.Workers > 0 {
		sub.Workers = ts.Workers
	}
	if ts.Byzantine != nil {
		sub.Byzantine = *ts.Byzantine
	}
	if ts.Server != nil {
		sub.Server = *ts.Server
	}
	return sub, tenantSeed(masterSeed, ts.Name)
}

// tenantSecret is the deterministic per-tenant HMAC secret the harness
// mints worker tokens with — a harness fixture, not a production secret.
func tenantSecret(name string) string {
	return "loadgen-secret-" + name
}

// tenantUnitConfig maps a tenant's defaulted sub-scenario onto the
// tenant.Config its sub-run's root serves: the model/pipeline fields are
// the sub-scenario's server (the budget reads the dp stage's σ out of
// Stages), and the spec's quota and ε knobs become the unit's constraints.
func tenantUnitConfig(ts TenantSpec, sub Scenario, seed int64) tenant.Config {
	d := sub.withDefaults()
	return tenant.Config{
		Name:         ts.Name,
		Arch:         d.Server.Arch,
		LearningRate: d.Server.LearningRate,
		K:            d.Server.K,
		DeltaHistory: d.Server.DeltaHistory,
		Stages:       d.Server.Stages,
		Aggregator:   d.Server.Aggregator,
		Admission:    d.Server.Admission,
		Seed:         seed,
		Secret:       tenantSecret(ts.Name),
		MaxWorkers:   ts.MaxWorkers,
		Epsilon:      ts.Epsilon,
	}
}

// tenantClients returns the per-worker service factory of a one-tenant
// root: each worker presents its own minted token to the unit's service.
// The final stats caller (workerID −1) borrows worker 0's token: Stats
// carries no worker identity, so any valid tenant token authenticates it.
func tenantClients(unit service.Service, cfg tenant.Config) func(workerID int) service.Service {
	secret := []byte(cfg.Secret)
	return func(workerID int) service.Service {
		return credClient{inner: unit, creds: service.Credentials{
			Tenant: cfg.Name,
			Token:  tenant.MintToken(secret, cfg.Name, max(workerID, 0)),
		}}
	}
}

// credClient injects fixed credentials into every call's context — the
// in-process analogue of the HTTP Authorization header and the stream
// hello frame.
type credClient struct {
	inner service.Service
	creds service.Credentials
}

func (c credClient) RequestTask(ctx context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	return c.inner.RequestTask(service.WithCredentials(ctx, c.creds), req)
}

func (c credClient) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	return c.inner.PushGradient(service.WithCredentials(ctx, c.creds), push)
}

func (c credClient) Stats(ctx context.Context) (*protocol.Stats, error) {
	return c.inner.Stats(service.WithCredentials(ctx, c.creds))
}

// add accumulates another run's counters (multi-tenant aggregation),
// keeping at most five error samples.
func (c *Counts) add(o Counts) {
	c.PullAttempts += o.PullAttempts
	c.Accepted += o.Accepted
	c.Rejected += o.Rejected
	c.Pushes += o.Pushes
	c.LostPushes += o.LostPushes
	c.DeltaPulls += o.DeltaPulls
	c.FullPulls += o.FullPulls
	c.Departures += o.Departures
	c.Rejoins += o.Rejoins
	c.Restarts += o.Restarts
	c.Resyncs += o.Resyncs
	c.ProtocolErrors += o.ProtocolErrors
	c.TenantRejects += o.TenantRejects
	for _, s := range o.ErrorSamples {
		if len(c.ErrorSamples) >= 5 {
			break
		}
		c.ErrorSamples = append(c.ErrorSamples, s)
	}
}

// runTenants executes a multi-tenant scenario: one concurrent sub-run per
// tenant, each through its own serving unit, assembled into a parent result
// whose Counts/FinalAccuracy aggregate across the tenants (accuracy is the
// unweighted tenant mean; throughput is total pushes over the longest
// tenant's virtual duration).
func (r *Runner) runTenants(ctx context.Context, sc Scenario) (*Result, error) {
	if r.Transport != "" && r.Transport != TransportInProc {
		return nil, fmt.Errorf("loadgen: multi-tenant scenarios require the in-process transport (got %q)", r.Transport)
	}

	type slot struct {
		res *Result
		err error
	}
	slots := make([]slot, len(sc.Tenants))
	var wg sync.WaitGroup
	for i, ts := range sc.Tenants {
		wg.Add(1)
		go func(i int, ts TenantSpec) {
			defer wg.Done()
			sub, seed := TenantSubScenario(sc, ts, r.Seed)
			cfg := tenantUnitConfig(ts, sub, seed)
			runner := &Runner{Scenario: sub, Seed: seed, tenant: &cfg}
			res, err := runner.Run(ctx)
			if err != nil {
				slots[i].err = fmt.Errorf("loadgen: tenant %s: %w", ts.Name, err)
				return
			}
			slots[i].res = res
		}(i, ts)
	}
	wg.Wait()

	res := &Result{
		Scenario:    sc.Name,
		Description: sc.Description,
		Seed:        r.Seed,
		Transport:   string(TransportInProc),
		Rounds:      sc.Rounds,
		Config:      sc,
	}
	var accSum, scaleSum float64
	for i, ts := range sc.Tenants {
		if slots[i].err != nil {
			return nil, slots[i].err
		}
		sub := slots[i].res
		res.Workers += sub.Workers
		res.Counts.add(sub.Counts)
		if sub.VirtualDurationSec > res.VirtualDurationSec {
			res.VirtualDurationSec = sub.VirtualDurationSec
		}
		accSum += sub.FinalAccuracy
		scaleSum += sub.MeanScale * float64(sub.Counts.Pushes)
		res.Tenants = append(res.Tenants, &TenantResult{
			Name:   ts.Name,
			Seed:   sub.Seed,
			Result: sub,
			Stats:  sub.tenantStats,
		})
	}
	res.FinalAccuracy = accSum / float64(len(sc.Tenants))
	res.setRates(scaleSum)
	return res, nil
}
