package node

import (
	"errors"
	"fmt"
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
// grammar and the name→constructor registries. Compilation is a pure
// function of the Spec (the I-Prof pretraining sweep is seeded by
// Spec.Seed, or bypassed entirely with pre-collected observations), so
// rebuilding a killed node from the same Spec reproduces it exactly —
// the property the restart harness and a future hot standby both lean
// on.
func FromSpec(s Spec) (*Runtime, error) {
	if err := validateTransport(s.Bind.Transport); err != nil {
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

func validateTransport(t string) error {
	switch t {
	case "", "http", "stream", "both", "none":
		return nil
	default:
		return fmt.Errorf("unknown -transport %q (want http, stream or both)", t)
	}
}

// buildPipeline composes the update pipeline from the registry:
// per-gradient stages (staleness scaling, DP, filters) in front of the
// window aggregator (sharded mean, or a Byzantine-resilient rule).
func buildPipeline(s Spec, algo learning.Algorithm) (*pipeline.Pipeline, error) {
	pipe, err := pipeline.Build(s.Stages, s.Aggregator, pipeline.BuildOptions{
		Algorithm: algo,
		Shards:    s.Shards,
		Seed:      s.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("%w\nknown stages: %s; known aggregators: %s",
			err, strings.Join(pipeline.Stages(), ", "), strings.Join(pipeline.Aggregators(), ", "))
	}
	return pipe, nil
}

// buildProfilers pre-trains I-Prof (§3.3): pre-collected observations
// win (the harness path — collected exactly once so a rebuild is pure);
// otherwise a positive SLO runs the offline sweep over the simulated
// training fleet. One RNG feeds both sweeps, time before energy — the
// draw order is part of the deterministic contract.
func buildProfilers(s Spec) (timeProf, energyProf *iprof.IProf, err error) {
	timeObs, energyObs := s.TimeObservations, s.EnergyObservations
	if (timeObs == nil && s.TimeSLO > 0) || (energyObs == nil && s.EnergySLO > 0) {
		rng := simrand.New(s.Seed)
		trainers := device.Catalogue()[:8]
		if timeObs == nil && s.TimeSLO > 0 {
			timeObs = iprof.Collect(rng, trainers, iprof.KindTime, s.TimeSLO).Observations
		}
		if energyObs == nil && s.EnergySLO > 0 {
			energyObs = iprof.Collect(rng, trainers, iprof.KindEnergy, s.EnergySLO).Observations
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

// compileRoot assembles the parameter server: single-tenant (one model,
// one pipeline, one admission chain) or multi-tenant (each declared
// tenant a child runtime behind the shared listeners).
func compileRoot(s Spec) (*Runtime, error) {
	name := s.name()
	archName := s.Arch
	if archName == "" {
		archName = "tiny-mnist"
	}
	arch, err := nn.ArchByName(archName)
	if err != nil {
		return nil, err
	}
	timeProf, energyProf, err := buildProfilers(s)
	if err != nil {
		return nil, err
	}
	interceptors := buildInterceptors(s)

	// Multi-tenant mode: the declared tenants replace the single-server
	// model/pipeline fields entirely — each unit builds its own from its
	// config — while the transport, drain, interceptor and checkpoint
	// fields apply deployment-wide.
	if len(s.Tenants) > 0 {
		return compileTenants(s, name, timeProf, energyProf, interceptors)
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
		F16Announce:      s.F16Announce,
		Seed:             s.Seed,
		TimeProfiler:     timeProf,
		EnergyProfiler:   energyProf,
	}

	// Compose the admission chain from the registry. Every Figure-2
	// controller knob routes through the same spec grammar as the
	// stages: an explicit Admission wins, otherwise the legacy knobs
	// synthesize the equivalent chain.
	admissionSpec := s.Admission
	if admissionSpec == "" {
		var parts []string
		if timeProf != nil {
			parts = append(parts, fmt.Sprintf("iprof-time(%g)", s.TimeSLO))
		}
		if energyProf != nil {
			parts = append(parts, fmt.Sprintf("iprof-energy(%g)", s.EnergySLO))
		}
		if s.MinBatch > 0 {
			parts = append(parts, fmt.Sprintf("min-batch(%d)", s.MinBatch))
		}
		if s.MaxSimilarity > 0 {
			parts = append(parts, fmt.Sprintf("similarity(%g)", s.MaxSimilarity))
		}
		admissionSpec = strings.Join(parts, ",")
	}
	schedOpts := sched.BuildOptions{Now: s.Now}
	if timeProf != nil {
		schedOpts.TimeProfiler = timeProf
	}
	if energyProf != nil {
		schedOpts.EnergyProfiler = energyProf
	}
	chain, err := sched.Build(admissionSpec, schedOpts)
	if err != nil {
		return nil, fmt.Errorf("%w\nknown admission policies: %s", err, strings.Join(sched.Policies(), ", "))
	}
	if admissionSpec != "" {
		cfg.Admission = chain
	}

	srv, err := bootRoot(s, cfg)
	if err != nil {
		return nil, err
	}

	asm := Assembly{
		Name:       name,
		Service:    service.Chain(srv, interceptors...),
		Server:     srv,
		Transport:  s.Bind.Transport,
		Addr:       s.Bind.Addr,
		StreamAddr: s.Bind.StreamAddr,
		Drain:      s.Bind.Drain,
		Announce:   srv.OnSnapshot,
		Banner: fmt.Sprintf("FLeet server listening on %s (arch=%s, lr=%g, K=%d, pipeline: %s, admission: [%s])",
			s.Bind.Addr, arch, s.LearningRate, s.K, pipe, strings.Join(chain.Names(), " -> ")),
		Logf: s.Logf,
	}
	if t := s.Bind.Transport; t == "stream" || t == "both" {
		asm.Banner += fmt.Sprintf(", stream sessions on %s", s.Bind.StreamAddr)
	}
	if s.Checkpoint.Dir != "" {
		asm.Checkpoint = srv.Checkpoint
		asm.PreDrainCheckpoint = true
		// Close flushes the background checkpoint writer at exit so the
		// final enqueued cores are durable before the process dies.
		asm.Closer = srv.Close
		asm.Banner += fmt.Sprintf(", checkpoints: %s every %d windows, incarnation %d at version %d",
			s.Checkpoint.Dir, s.Checkpoint.Every, srv.Epoch(), srv.RestoredVersion())
	}
	return New(asm), nil
}

// bootRoot boots the root's server per the recovery policy. A missing
// checkpoint with Recover "latest" is a first boot — that must be said
// out loud (Recover "fresh"), never silently decided; a corrupt-only
// directory always refuses (the operator deletes or repairs, the server
// does not guess).
//
// The boot nonce covers the restart paths checkpoints do not: a boot
// that ends up with a freshly initialized model (no checkpoint dir, or
// Recover "fresh" on an empty directory) still bumps the incarnation
// epoch, so workers that cached state from a previous instance resync
// instead of colliding on epoch 0. freshConfig consults (and advances)
// the persisted counter only when the fresh path is actually taken — a
// checkpoint restore derives its epoch from the checkpoint itself, and
// the harness's Recover "" boots opt in via NonceDir.
func bootRoot(s Spec, cfg server.Config) (*server.Server, error) {
	ck := s.Checkpoint
	freshConfig := func(bootDir string) (server.Config, error) {
		if bootDir == "" {
			return cfg, nil
		}
		nonce, err := persist.BootNonce(bootDir, s.Seed)
		if err != nil {
			return cfg, err
		}
		fresh := cfg
		fresh.BootEpoch = nonce
		return fresh, nil
	}
	if ck.Dir == "" {
		fresh, err := freshConfig(ck.NonceDir)
		if err != nil {
			return nil, err
		}
		return server.New(fresh)
	}
	ckpt, err := persist.NewCheckpointer(ck.Dir, ck.Keep)
	if err != nil {
		return nil, err
	}
	cfg.Checkpointer = ckpt
	cfg.CheckpointEvery = ck.Every
	bootDir := ck.NonceDir
	if bootDir == "" {
		bootDir = ck.Dir
	}
	switch ck.Recover {
	case "latest":
		srv, err := server.RestoreLatest(cfg, ck.Dir)
		if errors.Is(err, persist.ErrNoCheckpoint) {
			return nil, fmt.Errorf("%w (first boot? pass -checkpoint-recover=fresh to initialize a new model)", err)
		}
		return srv, err
	case "fresh":
		srv, err := server.RestoreLatest(cfg, ck.Dir)
		if errors.Is(err, persist.ErrNoCheckpoint) {
			var fresh server.Config
			fresh, err = freshConfig(bootDir)
			if err == nil {
				srv, err = server.New(fresh)
			}
		}
		return srv, err
	case "":
		// The harness path: every boot is this instance's first; the
		// checkpointer is wired for the successors Recover "latest"
		// builds. The nonce stays opt-in (NonceDir) so replayed runs
		// keep epoch 0.
		fresh, err := freshConfig(ck.NonceDir)
		if err != nil {
			return nil, err
		}
		return server.New(fresh)
	default:
		return nil, fmt.Errorf("unknown -checkpoint-recover %q (want latest or fresh)", ck.Recover)
	}
}

// compileTenants assembles the multi-tenant root: the registry builds
// every unit (restore-latest per tenant subdirectory), and each unit
// becomes a child of the parent runtime — checkpointed and closed by the
// parent's lifecycle, served through the parent's listeners.
func compileTenants(s Spec, name string, timeProf, energyProf *iprof.IProf, interceptors []service.Interceptor) (*Runtime, error) {
	topts := tenant.Options{
		Default:         s.DefaultTenant,
		Now:             s.Now,
		CheckpointDir:   s.Checkpoint.Dir,
		CheckpointEvery: s.Checkpoint.Every,
		CheckpointKeep:  s.Checkpoint.Keep,
		Interceptors:    interceptors,
	}
	if timeProf != nil {
		topts.TimeProfiler = timeProf
	}
	if energyProf != nil {
		topts.EnergyProfiler = energyProf
	}
	reg, err := tenant.NewRegistry(s.Tenants, topts)
	if err != nil {
		return nil, err
	}
	units := reg.Units()
	names := make([]string, 0, len(units))
	children := make([]Child, 0, len(units))
	for _, u := range units {
		names = append(names, u.Name())
		srv := u.Server()
		child := Child{Name: u.Name(), Close: srv.Close}
		if s.Checkpoint.Dir != "" {
			child.Checkpoint = srv.Checkpoint
		}
		children = append(children, child)
	}
	// Close every child's background writers, best effort, first error
	// reported — mirrors the checkpoint sweep below.
	closeChildren := func() error {
		var firstErr error
		for _, c := range children {
			if err := c.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("tenant %s: %w", c.Name, err)
			}
		}
		return firstErr
	}
	asm := Assembly{
		Name:       name,
		Service:    reg.Default().Service(),
		Transport:  s.Bind.Transport,
		Addr:       s.Bind.Addr,
		StreamAddr: s.Bind.StreamAddr,
		Drain:      s.Bind.Drain,
		Handler:    reg.Handler(),
		Resolver: func(tn string) (service.Service, string, error) {
			u, err := reg.Resolve(tn)
			if err != nil {
				return nil, "", err
			}
			return u.Service(), u.Name(), nil
		},
		AnnounceTenants: func(broadcast func(string, protocol.ModelAnnounce)) {
			for _, u := range units {
				tn := u.Name()
				u.Server().OnSnapshot(func(ann protocol.ModelAnnounce) { broadcast(tn, ann) })
			}
		},
		Children: children,
		Closer:   closeChildren,
		Banner: fmt.Sprintf("FLeet multi-tenant server listening on %s (tenants: %s; default %s)",
			s.Bind.Addr, strings.Join(names, ", "), reg.Default().Name()),
		Logf: s.Logf,
	}
	if t := s.Bind.Transport; t == "stream" || t == "both" {
		asm.Banner += fmt.Sprintf(", stream sessions on %s", s.Bind.StreamAddr)
	}
	if s.Checkpoint.Dir != "" {
		dir := s.Checkpoint.Dir
		asm.PreDrainCheckpoint = true
		// Checkpoint every child, best effort, first error reported —
		// shutdown wants durability everywhere, not fail-fast.
		asm.Checkpoint = func() (string, error) {
			var firstErr error
			for _, c := range children {
				if c.Checkpoint == nil {
					continue
				}
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
// pipeline and admission chain compose from the same registries as the
// root's, and the upstream client is the node's only write path.
func compileEdge(s Spec) (*Runtime, error) {
	name := s.name()
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
		return nil, fmt.Errorf("%w\nknown admission policies: %s", err, strings.Join(sched.Policies(), ", "))
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
		// The edge consumes them here, so the client's own pending run is
		// discarded rather than held for a TakeAnnounces nobody makes.
		upClient.OnAnnounce = func(ann protocol.ModelAnnounce) {
			node.AbsorbUpstreamAnnounce(ann)
			upClient.TakeAnnounces()
		}
	}

	interceptors := buildInterceptors(s)
	asm := Assembly{
		Name:       name,
		Service:    service.Chain(node, interceptors...),
		Transport:  s.Bind.Transport,
		Addr:       s.Bind.Addr,
		StreamAddr: s.Bind.StreamAddr,
		Drain:      s.Bind.Drain,
		// Every edge model refresh relays downstream as an announce to
		// subscribed leaf sessions — the push half of the tree.
		Announce: node.OnAnnounce,
		Sync:     node.Sync,
		Flush:    node.Flush,
		DrainedMsg: func() string {
			return fmt.Sprintf("drained cleanly (%d windows forwarded, %d lost)",
				node.UpstreamPushes(), node.LostWindows())
		},
		Banner: fmt.Sprintf("FLeet edge aggregator on %s (upstream=%s via %s, arch=%s, K=%d, pipeline: %s, admission: [%s])",
			s.Bind.Addr, s.Upstream.Target, upTransport, arch, s.K, pipe, strings.Join(chain.Names(), " -> ")),
		Logf: s.Logf,
	}
	if upClient != nil {
		asm.CloseUpstream = upClient.Close
		asm.UpstreamStream = upClient
	}
	if t := s.Bind.Transport; t == "stream" || t == "both" {
		asm.Banner += fmt.Sprintf(", stream sessions on %s", s.Bind.StreamAddr)
	}
	asm.EdgeNode = node
	return New(asm), nil
}
