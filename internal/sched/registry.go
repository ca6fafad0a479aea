package sched

import (
	"fmt"
	"sort"
	"strings"
	"sync"
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

// PolicyCtor builds one admission policy from its parenthesized numeric
// arguments.
type PolicyCtor func(args []float64, opts BuildOptions) (AdmissionPolicy, error)

var (
	regMu          sync.RWMutex
	policyRegistry = map[string]PolicyCtor{}
)

// RegisterPolicy adds (or replaces) a named policy constructor. Built-ins:
// "iprof-time(slo)", "iprof-energy(slo)", "min-batch(n)",
// "similarity(max)", "per-worker-quota(n,windowSec)".
func RegisterPolicy(name string, ctor PolicyCtor) {
	regMu.Lock()
	defer regMu.Unlock()
	policyRegistry[name] = ctor
}

// Policies lists the registered policy names, sorted.
func Policies() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(policyRegistry))
	for n := range policyRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterPolicy("iprof-time", func(args []float64, opts BuildOptions) (AdmissionPolicy, error) {
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
	})
	RegisterPolicy("iprof-energy", func(args []float64, opts BuildOptions) (AdmissionPolicy, error) {
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
	})
	RegisterPolicy("min-batch", func(args []float64, _ BuildOptions) (AdmissionPolicy, error) {
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
	})
	RegisterPolicy("similarity", func(args []float64, _ BuildOptions) (AdmissionPolicy, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("similarity takes (max), got %d args", len(args))
		}
		// Thresholds above 1 are legal no-ops (Bhattacharyya similarity
		// never exceeds 1): the -max-similarity flag was never validated.
		if args[0] <= 0 {
			return nil, fmt.Errorf("similarity threshold must be positive, got %g", args[0])
		}
		return Similarity(args[0]), nil
	})
	RegisterPolicy("per-worker-quota", func(args []float64, opts BuildOptions) (AdmissionPolicy, error) {
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
	})
}

// NewPolicy builds one policy from a spec like "min-batch(5)".
func NewPolicy(specStr string, opts BuildOptions) (AdmissionPolicy, error) {
	name, args, err := spec.Parse(specStr)
	if err != nil {
		return nil, fmt.Errorf("sched: %v", err)
	}
	regMu.RLock()
	ctor, ok := policyRegistry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sched: unknown admission policy %q (known: %s)",
			name, strings.Join(Policies(), ", "))
	}
	p, err := ctor(args, opts)
	if err != nil {
		return nil, fmt.Errorf("sched: policy %q: %v", name, err)
	}
	return p, nil
}

// Build composes an admission chain from a comma-separated policy spec in
// evaluation order, e.g.
//
//	Build("iprof-time(3),min-batch(5),similarity(0.9)", opts)
//
// An empty spec builds an empty chain: every task is admitted at the
// server's default batch size.
func Build(chainSpec string, opts BuildOptions) (*Chain, error) {
	var policies []AdmissionPolicy
	if strings.TrimSpace(chainSpec) != "" {
		for _, s := range spec.Split(chainSpec) {
			p, err := NewPolicy(s, opts)
			if err != nil {
				return nil, err
			}
			policies = append(policies, p)
		}
	}
	return NewChain(policies...), nil
}
