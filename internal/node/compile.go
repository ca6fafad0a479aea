package node

import (
	"cmp"
	"errors"
	"fmt"
	"path/filepath"
	"strings"

	"fleet/internal/aggtree"
	"fleet/internal/device"
	"fleet/internal/iprof"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/persist"
	"fleet/internal/pipeline"
	"fleet/internal/protocol"
	"fleet/internal/sched"
	"fleet/internal/server"
	"fleet/internal/service"
	"fleet/internal/simrand"
	"fleet/internal/stream"
	"fleet/internal/tenant"
	"fleet/internal/worker"
)

// FromSpec compiles a Spec into a Runtime through the shared spec
// grammar and the name→constructor tables. Compilation is a pure
// function of the Spec (the I-Prof pretraining sweep is seeded by
// Spec.Seed, or bypassed entirely with pre-collected observations), so
// rebuilding a killed node from the same Spec reproduces it exactly —
// the property the restart harness and a future hot standby both lean
// on.
func FromSpec(s Spec) (*Runtime, error) {
	if err := validateTransport(s.Bind.Transport); err != nil {
		return nil, err
	}
	if err := negativeKnob(s); err != nil {
		return nil, err
	}
	var err error
	if s.NonStragglerPct, err = nonStragglerPct(s.NonStragglerPct); err != nil {
		return nil, err
	}
	s.Tenants = append([]tenant.Config(nil), s.Tenants...) // resolved below; the caller's stay untouched
	for i := range s.Tenants {
		if s.Tenants[i].NonStragglerPct, err = nonStragglerPct(s.Tenants[i].NonStragglerPct); err != nil {
			return nil, fmt.Errorf("tenant %s: %w", s.Tenants[i].Name, err)
		}
	}
	switch s.Role {
	case RoleRoot, "":
		return compileRoot(s)
	case RoleEdge:
		return compileEdge(s)
	default:
		return nil, fmt.Errorf("unknown node role %q (want root or edge)", s.Role)
	}
}

// nonStragglerPct resolves AdaSGD's s-percentile for every role: unset
// means the paper's 99.7, and a value outside (0, 100] — which
// learning.NewAdaSGD treats as a programming error and panics on — is a
// configuration error here.
func nonStragglerPct(pct float64) (float64, error) {
	if pct == 0 {
		return 99.7, nil
	}
	if !(pct > 0 && pct <= 100) {
		return 0, fmt.Errorf("NonStragglerPct %v outside (0, 100]", pct)
	}
	return pct, nil
}

// negativeKnob refuses, on every role, a count, bound, rate or period
// below zero: each reads zero as its default or as "off", and a negative
// value would be quietly taken for one of those (K=-1 runs K=1, a negative
// rate limit none). DeltaHistory is the one knob whose negative value means
// something (no delta history), so it is not checked.
func negativeKnob(s Spec) error {
	for _, k := range []struct {
		name     string
		v        any
		negative bool
	}{
		{"K", s.K, s.K < 0},
		{"DefaultBatchSize", s.DefaultBatchSize, s.DefaultBatchSize < 0},
		{"TimeSLO", s.TimeSLO, s.TimeSLO < 0},
		{"EnergySLO", s.EnergySLO, s.EnergySLO < 0},
		{"MinBatch", s.MinBatch, s.MinBatch < 0},
		{"MaxSimilarity", s.MaxSimilarity, s.MaxSimilarity < 0},
		{"RateLimit", s.RateLimit, s.RateLimit < 0},
		{"RateBurst", s.RateBurst, s.RateBurst < 0},
		{"Deadline", s.Deadline, s.Deadline < 0},
		{"Checkpoint.Every", s.Checkpoint.Every, s.Checkpoint.Every < 0},
		{"Checkpoint.Keep", s.Checkpoint.Keep, s.Checkpoint.Keep < 0},
	} {
		if k.negative {
			return fmt.Errorf("%s %v must not be negative", k.name, k.v)
		}
	}
	return nil
}

func validateTransport(t string) error {
	switch t {
	case "", "http", "stream", "both", "none":
		return nil
	default:
		return fmt.Errorf("unknown -transport %q (want http, stream, both or none)", t)
	}
}

// buildPipeline composes the update pipeline from the spec tables:
// per-gradient stages (staleness scaling, DP, filters) in front of the
// window aggregator (the mean, or a Byzantine-resilient rule).
func buildPipeline(s Spec, algo learning.Algorithm) (*pipeline.Pipeline, error) {
	return pipeline.Build(s.Stages, s.Aggregator, pipeline.BuildOptions{
		Algorithm: algo,
		Seed:      s.Seed,
	})
}

// admission is the root's effective admission chain spec: an explicit
// Admission wins, otherwise the four Figure-2 knobs name the equivalent
// chain. This is the knobs' only meaning.
func (s Spec) admission() string {
	if s.Admission != "" {
		return s.Admission
	}
	var parts []string
	if s.TimeSLO > 0 {
		parts = append(parts, fmt.Sprintf("iprof-time(%g)", s.TimeSLO))
	}
	if s.EnergySLO > 0 {
		parts = append(parts, fmt.Sprintf("iprof-energy(%g)", s.EnergySLO))
	}
	if s.MinBatch > 0 {
		parts = append(parts, fmt.Sprintf("min-batch(%d)", s.MinBatch))
	}
	if s.MaxSimilarity > 0 {
		parts = append(parts, fmt.Sprintf("similarity(%g)", s.MaxSimilarity))
	}
	return strings.Join(parts, ",")
}

// profilerSLOs returns the SLOs a root's profilers are pretrained at: the
// ones its admission chain names, or on a multi-tenant root, whose units
// share one pair, the largest any unit's chain (its Admission spec, see
// unitSpec) names. Zero pretrains none.
func profilerSLOs(s Spec) (timeSLO, energySLO float64) {
	if len(s.Tenants) == 0 {
		return sched.ProfilerSLOs(s.admission())
	}
	for _, c := range s.Tenants {
		t, e := sched.ProfilerSLOs(c.Admission)
		timeSLO, energySLO = max(timeSLO, t), max(energySLO, e)
	}
	return timeSLO, energySLO
}

// buildProfilers pre-trains I-Prof (§3.3) for exactly the profilers the
// admission chain names: pre-collected observations win (the harness
// path — collected exactly once so a rebuild is pure); otherwise the
// offline sweep runs over the simulated training fleet up to the SLO the
// chain states. One RNG feeds both sweeps, time before energy — the draw
// order is part of the deterministic contract.
func buildProfilers(s Spec) (timeProf, energyProf *iprof.IProf, err error) {
	timeObs, energyObs := s.TimeObservations, s.EnergyObservations
	timeSLO, energySLO := profilerSLOs(s)
	if (timeObs == nil && timeSLO > 0) || (energyObs == nil && energySLO > 0) {
		rng := simrand.New(s.Seed)
		trainers := device.Catalogue()[:8]
		if timeObs == nil && timeSLO > 0 {
			timeObs = iprof.Collect(rng, trainers, iprof.KindTime, timeSLO).Observations
		}
		if energyObs == nil && energySLO > 0 {
			energyObs = iprof.Collect(rng, trainers, iprof.KindEnergy, energySLO).Observations
		}
	}
	if timeObs != nil {
		timeProf, err = iprof.New(iprof.Config{Epsilon: 2e-4, RetrainEvery: 100}, timeObs)
		if err != nil {
			return nil, nil, err
		}
	}
	if energyObs != nil {
		energyProf, err = iprof.New(iprof.Config{Epsilon: 6e-5, RetrainEvery: 100}, energyObs)
		if err != nil {
			return nil, nil, err
		}
	}
	return timeProf, energyProf, nil
}

// buildInterceptors composes the operator-level chain wrapped around the
// serving surface: recovery outermost, then observability, then policy.
// Shared by the single-tenant path and (per unit) the multi-tenant
// registry.
func buildInterceptors(s Spec) []service.Interceptor {
	interceptors := []service.Interceptor{service.Recovery()}
	if s.Verbose {
		interceptors = append(interceptors, service.Logging(nil))
	}
	if s.Deadline > 0 {
		interceptors = append(interceptors, service.Deadline(s.Deadline))
	}
	if s.RateLimit > 0 {
		interceptors = append(interceptors, service.RateLimit(s.RateLimit, s.RateBurst))
	}
	return interceptors
}

// assembly starts a Spec's Assembly with the fields every role fills the
// same way: the log name, the listener surface and the banner (with the
// stream listener appended when one serves).
func (s Spec) assembly(svc service.Service, banner string) Assembly {
	if t := s.Bind.Transport; t == "stream" || t == "both" {
		banner += fmt.Sprintf(", stream sessions on %s", s.Bind.StreamAddr)
	}
	return Assembly{
		Name:       s.name(),
		Service:    svc,
		Transport:  s.Bind.Transport,
		Addr:       s.Bind.Addr,
		StreamAddr: s.Bind.StreamAddr,
		Drain:      s.Bind.Drain,
		Banner:     banner,
		Logf:       s.Logf,
	}
}

// untenanted wires a single-tenant model source's announces to the
// broadcast under the "" label its sessions carry.
func untenanted(hook func(func(protocol.ModelAnnounce))) func(func(string, protocol.ModelAnnounce)) {
	return func(broadcast func(string, protocol.ModelAnnounce)) {
		hook(func(ann protocol.ModelAnnounce) { broadcast("", ann) })
	}
}

// compileRoot assembles the parameter server: single-tenant (one model,
// one pipeline, one admission chain) or multi-tenant (each declared
// tenant a child unit behind the shared listeners).
func compileRoot(s Spec) (*Runtime, error) {
	if s.DefaultTenant != "" && len(s.Tenants) == 0 {
		return nil, fmt.Errorf("DefaultTenant %q is set but no Tenants are declared: a default tenant names one of them", s.DefaultTenant)
	}
	timeProf, energyProf, err := buildProfilers(s)
	if err != nil {
		return nil, err
	}
	if len(s.Tenants) > 0 {
		return compileTenants(s, timeProf, energyProf)
	}
	if s.Arch == "" {
		s.Arch = "tiny-mnist"
	}
	srv, err := rootServer(s, timeProf, energyProf, true)
	if err != nil {
		return nil, err
	}
	asm := s.assembly(service.Chain(srv, buildInterceptors(s)...),
		fmt.Sprintf("FLeet server listening on %s (arch=%s, lr=%g, K=%d, pipeline: %s, admission: [%s])",
			s.Bind.Addr, s.Arch, s.LearningRate, s.K, srv.Pipeline(), strings.Join(sched.Names(srv.Admission()), " -> ")))
	asm.Server = srv
	asm.Announce = untenanted(srv.OnSnapshot)
	if s.Checkpoint.Dir != "" {
		asm.Checkpoint = srv.Checkpoint
		asm.Banner += fmt.Sprintf(", checkpoints: %s every %d windows, incarnation %d at version %d",
			s.Checkpoint.Dir, s.Checkpoint.Every, srv.Epoch(), srv.RestoredVersion())
	}
	return New(asm), nil
}

// rootServer builds one parameter server from a root Spec — the
// single-model root's, or one tenant unit's: architecture, AdaSGD, the
// update pipeline and the admission chain from the shared spec tables,
// booted per the Spec's recovery policy. owned says the profilers are this
// server's to train and checkpoint; a tenant unit only reads the
// deployment's shared pair through its admission chain.
func rootServer(s Spec, timeProf, energyProf *iprof.IProf, owned bool) (*server.Server, error) {
	arch, err := nn.ArchByName(s.Arch)
	if err != nil {
		return nil, err
	}
	algo := learning.NewAdaSGD(learning.AdaSGDConfig{NonStragglerPct: s.NonStragglerPct, BootstrapSteps: 50})
	pipe, err := buildPipeline(s, algo)
	if err != nil {
		return nil, err
	}
	cfg := server.Config{
		Arch:             arch,
		Algorithm:        algo,
		LearningRate:     s.LearningRate,
		K:                s.K,
		Pipeline:         pipe,
		DeltaHistory:     s.DeltaHistory,
		DefaultBatchSize: s.DefaultBatchSize,
		Seed:             s.Seed,
	}
	if owned {
		cfg.TimeProfiler, cfg.EnergyProfiler = timeProf, energyProf
	}

	// A nil *IProf must stay a nil Profiler, or the iprof-* constructors
	// would accept a chain with no profiler behind it.
	schedOpts := sched.BuildOptions{Now: s.Now}
	if timeProf != nil {
		schedOpts.TimeProfiler = timeProf
	}
	if energyProf != nil {
		schedOpts.EnergyProfiler = energyProf
	}
	if cfg.Admission, err = sched.Build(s.admission(), schedOpts); err != nil {
		return nil, err
	}
	return bootRoot(s, cfg)
}

// bootRoot boots the root's server per the recovery policy. A missing
// checkpoint with Recover "latest" is a first boot — that must be said
// out loud (Recover "fresh", which the zero value means), never silently
// decided; a corrupt-only directory always refuses (the operator deletes
// or repairs, the server does not guess). Both refusals come before the
// boot count is touched.
//
// Every boot with a state directory (NonceDir, else Dir) takes its epoch
// from the directory's boot count (persist.BootNonce), fresh or restored:
// no two boots of one directory share an epoch, so workers that cached
// state from any earlier instance resync instead of patching this one's
// deltas onto it. A checkpoint that arrived without its boot count could
// carry the nonce this boot draws; the next one is drawn then.
func bootRoot(s Spec, cfg server.Config) (*server.Server, error) {
	ck := s.Checkpoint
	if ck.Recover != "latest" && ck.Recover != "fresh" && ck.Recover != "" {
		return nil, fmt.Errorf("unknown -checkpoint-recover %q (want latest or fresh)", ck.Recover)
	}
	var st *persist.State
	if ck.Dir != "" {
		ckpt, err := persist.NewCheckpointer(ck.Dir, ck.Keep)
		if err != nil {
			return nil, err
		}
		cfg.Checkpointer, cfg.CheckpointEvery = ckpt, ck.Every
		st, _, err = persist.LoadLatest(ck.Dir)
		if errors.Is(err, persist.ErrNoCheckpoint) && ck.Recover == "latest" {
			return nil, fmt.Errorf("%w (first boot? pass -checkpoint-recover=fresh to initialize a new model)", err)
		}
		if err != nil && !errors.Is(err, persist.ErrNoCheckpoint) {
			return nil, err
		}
	}
	if dir := cmp.Or(ck.NonceDir, ck.Dir); dir != "" {
		for {
			nonce, err := persist.BootNonce(dir, s.Seed)
			if err != nil {
				return nil, err
			}
			cfg.BootEpoch = nonce
			if st == nil || nonce != st.Epoch {
				break
			}
		}
	}
	if st != nil {
		return server.Restore(cfg, st)
	}
	return server.New(cfg)
}

// unitSpec maps one tenant's declaration onto the root Spec its unit is
// compiled from, applying tenant.Config's documented defaults. A unit keeps
// its durable state under <dir>/<name> and always boots "fresh if empty"
// (a corrupt-only subdirectory still refuses): Recover is one
// deployment-wide setting, and having to say "fresh" to add one tenant
// would let every other tenant start from nothing just as silently. The
// deployment's Recover and NonceDir therefore govern a single-model root
// only.
func unitSpec(s Spec, c tenant.Config) Spec {
	u := Spec{
		Arch:             c.Arch,
		LearningRate:     c.LearningRate,
		K:                c.K,
		NonStragglerPct:  c.NonStragglerPct,
		Seed:             c.Seed,
		DeltaHistory:     c.DeltaHistory,
		DefaultBatchSize: c.DefaultBatchSize,
		Stages:           c.Stages,
		Aggregator:       c.Aggregator,
		Admission:        c.Admission,
		Now:              s.Now,
	}
	if u.Arch == "" {
		u.Arch = "tiny-mnist"
	}
	if u.LearningRate == 0 {
		u.LearningRate = 0.03
	}
	if u.Stages == "" {
		u.Stages = "staleness"
	}
	if u.Aggregator == "" {
		u.Aggregator = "mean"
	}
	if s.Checkpoint.Dir != "" {
		u.Checkpoint = CheckpointSpec{
			Dir:     filepath.Join(s.Checkpoint.Dir, c.Name),
			Every:   s.Checkpoint.Every,
			Keep:    s.Checkpoint.Keep,
			Recover: "fresh",
		}
	}
	return u
}

// compileTenants assembles the multi-tenant root: every declared tenant's
// server is compiled like a single-model root's (rootServer) and attached
// to its enforcement layer, and each unit becomes a child of the parent
// runtime — checkpointed by the parent's lifecycle, served
// through the parent's listeners. The single-model fields of s shape
// nothing here; its transport, drain, interceptor and checkpoint fields
// apply deployment-wide.
func compileTenants(s Spec, timeProf, energyProf *iprof.IProf) (*Runtime, error) {
	// Checked whole before the first unit boots, which writes under
	// <Checkpoint.Dir>/<name>: a refused declaration leaves no trace.
	if err := tenant.Validate(s.Tenants, s.DefaultTenant); err != nil {
		return nil, err
	}
	topts := tenant.Options{Default: s.DefaultTenant, Interceptors: buildInterceptors(s)}
	units := make([]*tenant.Unit, 0, len(s.Tenants))
	names := make([]string, 0, len(s.Tenants))
	children := make([]Child, 0, len(s.Tenants))
	for _, c := range s.Tenants {
		srv, err := rootServer(unitSpec(s, c), timeProf, energyProf, false)
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", c.Name, err)
		}
		u, err := tenant.Attach(c, srv, topts)
		if err != nil {
			return nil, err
		}
		child := Child{Name: c.Name, Server: srv}
		if s.Checkpoint.Dir != "" {
			child.Checkpoint = srv.Checkpoint
		}
		units, names, children = append(units, u), append(names, c.Name), append(children, child)
	}
	reg, err := tenant.NewRegistry(units, topts)
	if err != nil {
		return nil, err
	}
	asm := s.assembly(reg.Default().Service(),
		fmt.Sprintf("FLeet multi-tenant server listening on %s (tenants: %s; default %s)",
			s.Bind.Addr, strings.Join(names, ", "), reg.Default().Name()))
	asm.Handler = reg.Handler()
	asm.Resolver = func(tn string) (service.Service, string, error) {
		u, err := reg.Resolve(tn)
		if err != nil {
			return nil, "", err
		}
		return u.Service(), u.Name(), nil
	}
	asm.Announce = func(broadcast func(string, protocol.ModelAnnounce)) {
		for _, u := range units {
			tn := u.Name()
			u.Server().OnSnapshot(func(ann protocol.ModelAnnounce) { broadcast(tn, ann) })
		}
	}
	asm.Children = children
	if dir := s.Checkpoint.Dir; dir != "" {
		// Checkpoint every child, best effort, first error reported —
		// shutdown wants durability everywhere, not fail-fast.
		asm.Checkpoint = func() (string, error) {
			var firstErr error
			for _, c := range children {
				if _, err := c.Checkpoint(); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("tenant %s: %w", c.Name, err)
				}
			}
			return dir, firstErr
		}
		asm.Banner += fmt.Sprintf(", per-tenant checkpoints under %s every %d windows", dir, s.Checkpoint.Every)
	}
	return New(asm), nil
}

// compileEdge assembles a hierarchical-aggregation tier node: the local
// pipeline and admission chain compose from the same spec tables as the
// root's, and the upstream client is the node's only write path.
func compileEdge(s Spec) (*Runtime, error) {
	if s.Upstream.Target == "" && s.Upstream.Service == nil {
		return nil, fmt.Errorf("-upstream is required")
	}
	arch, err := nn.ArchByName(s.Arch)
	if err != nil {
		return nil, err
	}
	algo := learning.NewAdaSGD(learning.AdaSGDConfig{NonStragglerPct: s.NonStragglerPct, BootstrapSteps: 50})
	pipe, err := buildPipeline(s, algo)
	if err != nil {
		return nil, err
	}
	chain, err := sched.Build(s.Admission, sched.BuildOptions{Now: s.Now})
	if err != nil {
		return nil, err
	}

	cfg := aggtree.Config{
		Arch:             arch,
		Algorithm:        algo,
		K:                s.K,
		Pipeline:         pipe,
		Admission:        chain,
		DefaultBatchSize: s.DefaultBatchSize,
		DeltaHistory:     s.DeltaHistory,
		ID:               s.ID,
	}
	upTransport := s.Upstream.Transport
	if upTransport == "" {
		upTransport = "http"
	}
	var upClient *stream.Client
	switch {
	case s.Upstream.Service != nil:
		cfg.Upstream = s.Upstream.Service
	case upTransport == "http":
		cfg.Upstream = &worker.Client{BaseURL: strings.TrimSuffix(s.Upstream.Target, "/")}
	case upTransport == "stream":
		upClient = &stream.Client{Addr: s.Upstream.Target, WorkerID: s.ID, Subscribe: true}
		cfg.Upstream = upClient
	default:
		return nil, fmt.Errorf("unknown -upstream-transport %q (want http or stream)", upTransport)
	}

	node, err := aggtree.New(cfg)
	if err != nil {
		return nil, err
	}
	if upClient != nil {
		// Server-pushed model announces refresh the edge cache (and
		// relay downstream) without a pull round trip.
		// The edge consumes them here, so the client's own pending run (up
		// to the announce before this one, which joins it after the
		// callback) is discarded rather than held for a TakeAnnounces
		// nobody makes.
		upClient.OnAnnounce = func(ann protocol.ModelAnnounce) {
			node.AbsorbUpstreamAnnounce(ann)
			upClient.TakeAnnounces()
		}
	}

	asm := s.assembly(service.Chain(node, buildInterceptors(s)...),
		fmt.Sprintf("FLeet edge aggregator on %s (upstream=%s via %s, arch=%s, K=%d, pipeline: %s, admission: [%s])",
			s.Bind.Addr, s.Upstream.Target, upTransport, arch, s.K, pipe, strings.Join(chain.Names(), " -> ")))
	asm.EdgeNode = node
	// Every edge model refresh relays downstream as an announce to
	// subscribed leaf sessions — the push half of the tree.
	asm.Announce = untenanted(node.OnAnnounce)
	asm.Sync = node.Sync
	asm.Flush = node.Flush
	asm.DrainedMsg = func() string {
		return fmt.Sprintf("drained cleanly (%d windows forwarded, %d lost)",
			node.UpstreamPushes(), node.LostWindows())
	}
	if upClient != nil {
		asm.CloseUpstream = upClient.Close
	}
	return New(asm), nil
}
