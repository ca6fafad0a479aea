package sched

import (
	"fmt"
	"time"

	"fleet/internal/spec"
)

// BuildOptions carries the server-side dependencies spec-built chains draw
// on: string specs name *kinds* of policies, while the instances they wrap
// (the I-Prof profilers) come from the deployment.
type BuildOptions struct {
	// TimeProfiler backs "iprof-time(slo)"; EnergyProfiler backs
	// "iprof-energy(slo)". A spec naming a profiler policy errors when
	// the matching profiler is absent — a misconfiguration, not a
	// pass-through.
	TimeProfiler   Profiler
	EnergyProfiler Profiler
	// Now is the clock time-windowed policies ("per-worker-quota") read.
	// Nil means time.Now. Deterministic harnesses inject their virtual
	// clock here so admission decisions replay bit-for-bit per seed
	// instead of depending on wall-clock scheduling noise.
	Now func() time.Time
}

// policies names the admission policy constructors a chain spec may use.
var policies = map[string]spec.Ctor[BuildOptions, AdmissionPolicy]{
	"iprof-time": func(args []float64, opts BuildOptions) (AdmissionPolicy, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("iprof-time takes (sloSeconds), got %d args", len(args))
		}
		if args[0] <= 0 {
			return nil, fmt.Errorf("iprof-time SLO must be positive, got %g", args[0])
		}
		if opts.TimeProfiler == nil {
			return nil, fmt.Errorf("iprof-time requires a time profiler (BuildOptions.TimeProfiler)")
		}
		return IProfTime(opts.TimeProfiler, args[0]), nil
	},
	"iprof-energy": func(args []float64, opts BuildOptions) (AdmissionPolicy, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("iprof-energy takes (sloPct), got %d args", len(args))
		}
		if args[0] <= 0 {
			return nil, fmt.Errorf("iprof-energy SLO must be positive, got %g", args[0])
		}
		if opts.EnergyProfiler == nil {
			return nil, fmt.Errorf("iprof-energy requires an energy profiler (BuildOptions.EnergyProfiler)")
		}
		return IProfEnergy(opts.EnergyProfiler, args[0]), nil
	},
	"min-batch": func(args []float64, _ BuildOptions) (AdmissionPolicy, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("min-batch takes (n), got %d args", len(args))
		}
		n, err := spec.IntArg(args[0], "min-batch(n)")
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("min-batch threshold must be positive, got %d", n)
		}
		return MinBatch(n), nil
	},
	"similarity": func(args []float64, _ BuildOptions) (AdmissionPolicy, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("similarity takes (max), got %d args", len(args))
		}
		// Thresholds above 1 are legal no-ops (Bhattacharyya similarity
		// never exceeds 1): the -max-similarity flag was never validated.
		if args[0] <= 0 {
			return nil, fmt.Errorf("similarity threshold must be positive, got %g", args[0])
		}
		return Similarity(args[0]), nil
	},
	"per-worker-quota": func(args []float64, opts BuildOptions) (AdmissionPolicy, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("per-worker-quota takes (n, windowSeconds), got %d args", len(args))
		}
		n, err := spec.IntArg(args[0], "per-worker-quota(n)")
		if err != nil {
			return nil, err
		}
		if n <= 0 || args[1] <= 0 {
			return nil, fmt.Errorf("per-worker-quota needs positive n and window, got (%d, %g)", n, args[1])
		}
		return PerWorkerQuotaClock(n, time.Duration(args[1]*float64(time.Second)), opts.Now), nil
	},
}

// Build composes an admission chain from a comma-separated policy spec in
// evaluation order, e.g.
//
//	Build("iprof-time(3),min-batch(5),similarity(0.9)", opts)
//
// An empty spec builds an empty chain: every task is admitted at the
// server's default batch size.
func Build(chainSpec string, opts BuildOptions) (*Chain, error) {
	ps, err := spec.BuildList("admission policy", policies, chainSpec, opts)
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	return NewChain(ps...), nil
}

// ProfilerSLOs returns the SLOs a chain spec's "iprof-time" and
// "iprof-energy" policies state, 0 for one it does not name: which I-Prof
// profilers a deployment must pretrain for the chain, and the SLO each
// offline sweep must reach (it stops at twice the SLO). A policy named
// twice reports its larger SLO. A malformed spec names none here; Build
// reports it.
func ProfilerSLOs(chainSpec string) (timeSLO, energySLO float64) {
	for _, s := range spec.Split(chainSpec) {
		name, args, err := spec.Parse(s)
		if err != nil || len(args) == 0 {
			continue
		}
		switch name {
		case "iprof-time":
			timeSLO = max(timeSLO, args[0])
		case "iprof-energy":
			energySLO = max(energySLO, args[0])
		}
	}
	return timeSLO, energySLO
}
