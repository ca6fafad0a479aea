package tenant

import "fleet/internal/protocol"

// Registry maps tenant IDs onto their isolated serving units. It is built
// once at startup and read-only afterwards, so lookups need no locking.
type Registry struct {
	units []*Unit // declaration order
	byID  map[string]*Unit
	def   *Unit
}

// NewRegistry routes over built units (Attach), in declaration order.
// Options.Default selects which tenant un-tenanted routes alias to (empty:
// the first unit). The units' declaration must pass Validate.
func NewRegistry(units []*Unit, opts Options) (*Registry, error) {
	cfgs := make([]Config, len(units))
	for i, u := range units {
		cfgs[i] = u.cfg
	}
	if err := Validate(cfgs, opts.Default); err != nil {
		return nil, err
	}
	r := &Registry{units: units, byID: make(map[string]*Unit, len(units)), def: units[0]}
	for _, u := range units {
		r.byID[u.name] = u
	}
	if opts.Default != "" {
		r.def = r.byID[opts.Default]
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
