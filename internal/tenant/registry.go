package tenant

import (
	"fmt"

	"fleet/internal/protocol"
	"fleet/internal/service"
)

// Registry maps tenant IDs onto their isolated serving units. It is built
// once at startup from the declarative tenant configs and read-only
// afterwards, so lookups need no locking.
type Registry struct {
	units []*Unit // declaration order, for deterministic iteration
	byID  map[string]*Unit
	def   *Unit
}

// NewRegistry builds the units for every config. Options.Default selects
// which tenant un-tenanted routes alias to (empty: the first
// config).
func NewRegistry(cfgs []Config, opts Options) (*Registry, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("tenant: no tenants configured")
	}
	r := &Registry{byID: make(map[string]*Unit, len(cfgs))}
	for _, cfg := range cfgs {
		u, err := newUnit(cfg, opts)
		if err != nil {
			return nil, err
		}
		if _, dup := r.byID[u.name]; dup {
			return nil, fmt.Errorf("tenant: duplicate tenant %q", u.name)
		}
		r.byID[u.name] = u
		r.units = append(r.units, u)
	}
	if opts.Default == "" {
		r.def = r.units[0]
	} else {
		def, ok := r.byID[opts.Default]
		if !ok {
			return nil, fmt.Errorf("tenant: default tenant %q is not configured", opts.Default)
		}
		r.def = def
	}
	return r, nil
}

// Resolve returns the unit serving the named tenant; the empty name aliases
// to the default tenant (un-tenanted routes and hello frames). Unknown
// tenants fail as unauthenticated — the registry does not confirm which
// tenant names exist to unauthenticated callers.
func (r *Registry) Resolve(name string) (*Unit, error) {
	if name == "" {
		return r.def, nil
	}
	u, ok := r.byID[name]
	if !ok {
		return nil, protocol.Errorf(protocol.CodeUnauthenticated, "unknown tenant")
	}
	return u, nil
}

// ResolveService resolves a tenant name straight to its enforced service —
// the shape the stream transport's resolver hook wants.
func (r *Registry) ResolveService(name string) (service.Service, error) {
	u, err := r.Resolve(name)
	if err != nil {
		return nil, err
	}
	return u.Service(), nil
}

// Units returns every unit in declaration order.
func (r *Registry) Units() []*Unit { return r.units }

// Default returns the unit un-tenanted routes alias to.
func (r *Registry) Default() *Unit { return r.def }

// CheckpointAll checkpoints every unit's server, returning the first error
// after attempting all of them (shutdown wants best-effort durability
// everywhere, not fail-fast).
func (r *Registry) CheckpointAll() error {
	var firstErr error
	for _, u := range r.units {
		if _, err := u.srv.Checkpoint(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("tenant %s: %w", u.name, err)
		}
	}
	return firstErr
}

// Close flushes and stops every unit's background checkpoint writer.
func (r *Registry) Close() error {
	var firstErr error
	for _, u := range r.units {
		if err := u.srv.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("tenant %s: %w", u.name, err)
		}
	}
	return firstErr
}

// StatsBlocks assembles every tenant's stats block in declaration order —
// the deployment-wide view the server process logs on shutdown.
func (r *Registry) StatsBlocks() []*protocol.TenantStats {
	out := make([]*protocol.TenantStats, 0, len(r.units))
	for _, u := range r.units {
		out = append(out, u.StatsBlock())
	}
	return out
}
