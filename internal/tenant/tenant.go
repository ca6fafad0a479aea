// Package tenant lifts the single-fleet parameter server into a
// multi-tenant deployment: a Registry maps tenant IDs onto isolated serving
// units — each with its own model and architecture, update pipeline,
// admission chain, worker quota, DP epsilon budget and checkpoint
// subdirectory — and a per-unit interceptor enforces worker authentication
// (HMAC-SHA256 bearer tokens), the worker quota and the budget on every
// call, for both transports at once (the HTTP layer and the stream
// handshake only attach credentials; all enforcement lives here).
//
// Units are declared with the same spec grammar the rest of the system
// uses: a repeatable "name:arch:stages:aggregator:admission[:k=v...]" flag
// or a JSON config file, both routed through Config.
package tenant

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"fleet/internal/protocol"
	"fleet/internal/server"
	"fleet/internal/service"
)

// Config declares one tenant's serving unit. The zero value of every field
// except Name defaults to the single-fleet server's defaults, so
// "-tenant analytics" alone is a complete declaration. The model and
// pipeline defaults are applied where the unit's server is compiled
// (node.FromSpec); this package only enforces around a built server.
type Config struct {
	// Name is the tenant's registry key, route segment (/v1/t/<name>/...)
	// and checkpoint subdirectory. Letters, digits, '-', '_' and '.' only.
	Name string `json:"name"`
	// Model and pipeline: the same knobs cmd/fleet-server exposes, scoped
	// to this tenant.
	Arch             string  `json:"arch,omitempty"`          // default "tiny-mnist"
	LearningRate     float64 `json:"learning_rate,omitempty"` // default 0.03
	K                int     `json:"k,omitempty"`             // default 1
	DeltaHistory     int     `json:"delta_history,omitempty"` // default 4 (server's)
	DefaultBatchSize int     `json:"default_batch_size,omitempty"`
	NonStragglerPct  float64 `json:"non_straggler_pct,omitempty"` // default 99.7
	Stages           string  `json:"stages,omitempty"`            // default "staleness"
	Aggregator       string  `json:"aggregator,omitempty"`        // default "mean"
	Admission        string  `json:"admission,omitempty"`         // empty: admit everything
	// Seed initializes this tenant's model (and dp-stage noise).
	Seed int64 `json:"seed,omitempty"`
	// Secret is the shared per-tenant HMAC secret worker tokens are minted
	// with (MintToken). Empty disables authentication for this tenant —
	// the single-fleet posture of a default tenant behind un-tenanted routes.
	Secret string `json:"secret,omitempty"`
	// MaxWorkers caps the distinct worker identities this tenant may
	// enroll (0: unlimited) — the per-tenant worker quota.
	MaxWorkers int `json:"max_workers,omitempty"`
	// Epsilon, when positive, is the tenant's total DP budget: admitted
	// pushes compose the dp stage's sampled Gaussian mechanism, and once
	// the composed ε would exceed Epsilon the tenant goes read-only
	// (budget_exhausted). Requires a dp(clip,σ) stage in Stages. Delta and
	// SamplingRatio parameterize the accountant (defaults 1e-5 and 0.01).
	Epsilon       float64 `json:"epsilon,omitempty"`
	Delta         float64 `json:"delta,omitempty"`
	SamplingRatio float64 `json:"sampling_ratio,omitempty"`
}

// withDefaults fills the accountant's parameters.
func (c Config) withDefaults() Config {
	if c.Delta <= 0 {
		c.Delta = 1e-5
	}
	if c.SamplingRatio <= 0 {
		c.SamplingRatio = 0.01
	}
	return c
}

// validName keeps tenant names safe as flag fields, URL path segments and
// directory names at once.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return name != "." && name != ".."
}

// ParseSpec parses the repeatable -tenant flag form
// "name:arch:stages:aggregator:admission[:key=value...]". Empty middle
// fields keep their defaults; trailing key=value options cover the knobs
// that are not part of the positional grammar: epsilon (or eps), delta, q,
// secret, workers (max worker quota), seed, lr, k.
func ParseSpec(s string) (Config, error) {
	parts := strings.Split(s, ":")
	cfg := Config{Name: parts[0]}
	positional := []*string{nil, &cfg.Arch, &cfg.Stages, &cfg.Aggregator, &cfg.Admission}
	i := 1
	for ; i < len(parts) && i < len(positional); i++ {
		if strings.Contains(parts[i], "=") {
			break // options start early; remaining positions keep defaults
		}
		*positional[i] = parts[i]
	}
	for ; i < len(parts); i++ {
		key, val, ok := strings.Cut(parts[i], "=")
		if !ok {
			return Config{}, fmt.Errorf("tenant: spec %q: field %q is neither positional (past %d fields) nor key=value", s, parts[i], len(positional))
		}
		var err error
		switch key {
		case "epsilon", "eps":
			cfg.Epsilon, err = strconv.ParseFloat(val, 64)
		case "delta":
			cfg.Delta, err = strconv.ParseFloat(val, 64)
		case "q":
			cfg.SamplingRatio, err = strconv.ParseFloat(val, 64)
		case "secret":
			cfg.Secret = val
		case "workers":
			cfg.MaxWorkers, err = strconv.Atoi(val)
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		case "lr":
			cfg.LearningRate, err = strconv.ParseFloat(val, 64)
		case "k":
			cfg.K, err = strconv.Atoi(val)
		default:
			return Config{}, fmt.Errorf("tenant: spec %q: unknown option %q", s, key)
		}
		if err != nil {
			return Config{}, fmt.Errorf("tenant: spec %q: option %q: %v", s, parts[i], err)
		}
	}
	if !validName(cfg.Name) {
		return Config{}, fmt.Errorf("tenant: invalid tenant name %q (letters, digits, '-', '_', '.')", cfg.Name)
	}
	return cfg, nil
}

// LoadFile reads a JSON array of Configs — the declarative file form of the
// -tenant flag.
func LoadFile(path string) ([]Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfgs []Config
	if err := json.Unmarshal(b, &cfgs); err != nil {
		return nil, fmt.Errorf("tenant: %s: %w", path, err)
	}
	return cfgs, nil
}

// Options carries what the enforcement layer shares deployment-wide.
type Options struct {
	// Default names the tenant un-tenanted routes alias to.
	// Empty: the first configured tenant.
	Default string
	// Interceptors are operator-level concerns (recovery, logging, rate
	// limits) wrapped outermost around every unit's service, outside the
	// tenant enforcement layer.
	Interceptors []service.Interceptor
}

// Unit is one tenant's isolated serving stack: its own parameter server
// behind the enforcement interceptor.
type Unit struct {
	name   string
	cfg    Config
	secret []byte
	srv    *server.Server
	svc    service.Service
	budget *Budget

	workerMu sync.Mutex
	workers  map[int]struct{}

	authRejects   atomic.Int64
	capRejects    atomic.Int64
	budgetRejects atomic.Int64
}

// Attach builds a Unit around a constructed server: the enforcement chain
// (authentication, worker quota, DP budget) and the per-tenant stats
// attribution. node.FromSpec compiles a fleet-server deployment's units
// and the loadgen harness's tenant sub-runs this way. The budget composes
// the σ of the dp stage srv's own pipeline runs.
func Attach(cfg Config, srv *server.Server, opts Options) (*Unit, error) {
	if !validName(cfg.Name) {
		return nil, fmt.Errorf("tenant: invalid tenant name %q", cfg.Name)
	}
	// A negative limit would read as "off" (no quota, no budget) or as the
	// default; zero is the spelling of those.
	for _, f := range []struct {
		name string
		v    float64
	}{{"worker quota", float64(cfg.MaxWorkers)}, {"epsilon", cfg.Epsilon}, {"delta", cfg.Delta}, {"sampling ratio", cfg.SamplingRatio}} {
		if f.v < 0 {
			return nil, fmt.Errorf("tenant %s: %s must not be negative, got %g", cfg.Name, f.name, f.v)
		}
	}
	cfg = cfg.withDefaults()
	var budget *Budget
	if cfg.Epsilon > 0 {
		sigma, ok := srv.Pipeline().NoiseMultiplier()
		if !ok {
			return nil, fmt.Errorf("tenant %s: an epsilon budget requires a dp(clip,sigma) stage in the pipeline (pipeline: %s)", cfg.Name, srv.Pipeline())
		}
		var err error
		budget, err = NewBudget(cfg.SamplingRatio, sigma, cfg.Delta, cfg.Epsilon)
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", cfg.Name, err)
		}
	}

	u := &Unit{
		name:    cfg.Name,
		cfg:     cfg,
		srv:     srv,
		budget:  budget,
		workers: map[int]struct{}{},
	}
	if cfg.Secret != "" {
		u.secret = []byte(cfg.Secret)
	}
	// Operator interceptors wrap outermost, tenant enforcement innermost —
	// so e.g. a panic inside enforcement is still recovered, and rejects
	// are rate-limit-visible.
	u.svc = service.Chain(srv, append(append([]service.Interceptor{}, opts.Interceptors...), u.interceptor())...)
	return u, nil
}

// Name returns the tenant's registry key.
func (u *Unit) Name() string { return u.name }

// Server returns the tenant's own parameter server (evaluation, explicit
// checkpoints, OnSnapshot wiring).
func (u *Unit) Server() *server.Server { return u.srv }

// Service is the tenant's enforced serving surface: authentication, the
// worker quota and the budget wrap the server. All transports must route
// through it.
func (u *Unit) Service() service.Service { return u.svc }

// admitWorker enrolls a worker identity, enforcing the per-tenant quota.
func (u *Unit) admitWorker(id int) bool {
	u.workerMu.Lock()
	defer u.workerMu.Unlock()
	if _, ok := u.workers[id]; ok {
		return true
	}
	if u.cfg.MaxWorkers > 0 && len(u.workers) >= u.cfg.MaxWorkers {
		return false
	}
	u.workers[id] = struct{}{}
	return true
}

// statsBlock assembles the tenant's per-tenant stats slice — what the
// interceptor stamps into Stats responses.
func (u *Unit) statsBlock() *protocol.TenantStats {
	u.workerMu.Lock()
	workers := len(u.workers)
	u.workerMu.Unlock()
	ts := &protocol.TenantStats{
		Name:             u.name,
		Workers:          workers,
		MaxWorkers:       u.cfg.MaxWorkers,
		AuthRejects:      u.authRejects.Load(),
		WorkerCapRejects: u.capRejects.Load(),
		BudgetRejects:    u.budgetRejects.Load(),
	}
	if u.budget != nil {
		ts.EpsilonBudget = u.budget.Limit()
		ts.EpsilonSpent = u.budget.Spent()
		ts.BudgetCharges = u.budget.Charges()
		ts.BudgetExhausted = u.budget.Exhausted()
	}
	return ts
}

// interceptor is the tenant enforcement layer, one Around hook for every
// method on every transport: authenticate the caller's credentials against
// the tenant secret, enforce the worker quota, gate pushes on the DP
// budget, charge applied pushes, and stamp Stats responses with the
// per-tenant block.
func (u *Unit) interceptor() service.Interceptor {
	return service.Around(func(ctx context.Context, info service.CallInfo, next func(context.Context) (interface{}, error)) (interface{}, error) {
		if u.secret != nil {
			creds, _ := service.CredentialsFrom(ctx)
			tokenWorker, err := VerifyToken(u.secret, u.name, creds.Token)
			if err != nil {
				u.authRejects.Add(1)
				return nil, protocol.Errorf(protocol.CodeUnauthenticated, "tenant %s: %v", u.name, err)
			}
			// A valid token only authenticates the worker it was minted
			// for; presenting it under another identity is a replay.
			if info.WorkerID >= 0 && tokenWorker != info.WorkerID {
				u.authRejects.Add(1)
				return nil, protocol.Errorf(protocol.CodeUnauthenticated,
					"tenant %s: token minted for worker %d presented by worker %d", u.name, tokenWorker, info.WorkerID)
			}
		}
		if info.WorkerID >= 0 && !u.admitWorker(info.WorkerID) {
			u.capRejects.Add(1)
			return nil, protocol.Errorf(protocol.CodeResourceExhausted,
				"tenant %s: worker quota of %d identities reached", u.name, u.cfg.MaxWorkers)
		}
		if info.Method == "PushGradient" && u.budget != nil && u.budget.Exhausted() {
			u.budgetRejects.Add(1)
			return nil, protocol.Errorf(protocol.CodeBudgetExhausted,
				"tenant %s: epsilon budget %.4g spent after %d pushes; tenant is read-only", u.name, u.budget.Limit(), u.budget.Charges())
		}
		v, err := next(ctx)
		if err != nil {
			return v, err
		}
		switch info.Method {
		case "PushGradient":
			// Only applied pushes perturb the model, so only they compose
			// privacy loss.
			if ack, ok := v.(*protocol.PushAck); ok && ack.Applied && u.budget != nil {
				u.budget.Charge()
			}
		case "Stats":
			// The server builds a fresh Stats per call, so stamping the
			// tenant block here mutates nothing shared.
			if st, ok := v.(*protocol.Stats); ok {
				st.Tenant = u.statsBlock()
			}
		}
		return v, nil
	})
}
