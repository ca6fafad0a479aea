package tenant

import (
	"fmt"

	"fleet/internal/protocol"
)

// Registry maps tenant IDs onto their isolated serving units. It is built
// once at startup and read-only afterwards, so lookups need no locking.
type Registry struct {
	units []*Unit // declaration order
	byID  map[string]*Unit
	def   *Unit
}

// NewRegistry routes over built units (Attach), in declaration order.
// Options.Default selects which tenant un-tenanted routes alias to (empty:
// the first unit).
func NewRegistry(units []*Unit, opts Options) (*Registry, error) {
	if len(units) == 0 {
		return nil, fmt.Errorf("tenant: no tenants configured")
	}
	r := &Registry{units: units, byID: make(map[string]*Unit, len(units))}
	for _, u := range units {
		if _, dup := r.byID[u.name]; dup {
			return nil, fmt.Errorf("tenant: duplicate tenant %q", u.name)
		}
		r.byID[u.name] = u
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

// Default returns the unit un-tenanted routes alias to.
func (r *Registry) Default() *Unit { return r.def }
