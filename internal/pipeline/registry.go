package pipeline

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"fleet/internal/dp"
	"fleet/internal/learning"
	"fleet/internal/robust"
	"fleet/internal/spec"
)

// BuildOptions carries the server-side dependencies spec-built pipelines
// draw on: string specs name *kinds* of stages and aggregators, while the
// instances they wrap come from the server configuration.
type BuildOptions struct {
	// Algorithm is wrapped by the "staleness" stage (usually the same
	// instance as ServerConfig.Algorithm, so scaling and absorption agree).
	Algorithm learning.Algorithm
	// Seed seeds the "dp" stage's noise RNG.
	Seed int64
}

// StageCtor builds one stage from its parenthesized numeric arguments.
type StageCtor func(args []float64, opts BuildOptions) (Stage, error)

// AggregatorCtor builds one window aggregator from its arguments.
type AggregatorCtor func(args []float64, opts BuildOptions) (WindowAggregator, error)

var (
	regMu         sync.RWMutex
	stageRegistry = map[string]StageCtor{}
	aggRegistry   = map[string]AggregatorCtor{}
)

// RegisterStage adds (or replaces) a named stage constructor. Built-ins:
// "staleness", "dp(clip,sigma)", "norm-filter(max)".
func RegisterStage(name string, ctor StageCtor) {
	regMu.Lock()
	defer regMu.Unlock()
	stageRegistry[name] = ctor
}

// RegisterAggregator adds (or replaces) a named aggregator constructor.
// Built-ins: "mean", "median", "trimmed(β)", "krum(f)".
func RegisterAggregator(name string, ctor AggregatorCtor) {
	regMu.Lock()
	defer regMu.Unlock()
	aggRegistry[name] = ctor
}

// Stages lists the registered stage names, sorted.
func Stages() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(stageRegistry))
	for n := range stageRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Aggregators lists the registered aggregator names, sorted.
func Aggregators() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(aggRegistry))
	for n := range aggRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// intArg rejects non-integral spec arguments instead of silently
// truncating them — krum(0.9) must not quietly become Krum{F: 0}.
func intArg(v float64, name string) (int, error) { return spec.IntArg(v, name) }

func init() {
	RegisterStage("staleness", func(args []float64, opts BuildOptions) (Stage, error) {
		if len(args) != 0 {
			return nil, fmt.Errorf("staleness takes no arguments")
		}
		return NewStalenessScale(opts.Algorithm)
	})
	RegisterStage("dp", func(args []float64, opts BuildOptions) (Stage, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("dp takes (clipNorm, noiseMultiplier), got %d args", len(args))
		}
		return NewDP(dp.Config{ClipNorm: args[0], NoiseMultiplier: args[1]}, opts.Seed)
	})
	RegisterStage("norm-filter", func(args []float64, _ BuildOptions) (Stage, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("norm-filter takes (maxL2Norm), got %d args", len(args))
		}
		return NewNormFilter(args[0])
	})

	RegisterAggregator("mean", func(args []float64, _ BuildOptions) (WindowAggregator, error) {
		if len(args) != 0 {
			return nil, fmt.Errorf("mean takes no arguments, got %v", args)
		}
		return NewMeanWindow(), nil
	})
	RegisterAggregator("median", func(args []float64, _ BuildOptions) (WindowAggregator, error) {
		if len(args) != 0 {
			return nil, fmt.Errorf("median takes no arguments")
		}
		return NewRetained(robust.CoordinateMedian{})
	})
	RegisterAggregator("trimmed", func(args []float64, _ BuildOptions) (WindowAggregator, error) {
		trim := 1
		switch len(args) {
		case 0:
		case 1:
			var err error
			if trim, err = intArg(args[0], "trimmed(trim)"); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("trimmed takes at most (trim), got %d args", len(args))
		}
		return NewRetained(robust.TrimmedMean{Trim: trim})
	})
	RegisterAggregator("krum", func(args []float64, _ BuildOptions) (WindowAggregator, error) {
		f := 1
		switch len(args) {
		case 0:
		case 1:
			var err error
			if f, err = intArg(args[0], "krum(f)"); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("krum takes at most (f), got %d args", len(args))
		}
		return NewRetained(robust.Krum{F: f})
	})
}

// parseSpec splits "name" or "name(a,b)" into the name and numeric args
// using the shared registry grammar (internal/spec).
func parseSpec(s string) (name string, args []float64, err error) {
	return spec.Parse(s)
}

// NewStage builds one stage from a spec like "norm-filter(100)".
func NewStage(spec string, opts BuildOptions) (Stage, error) {
	name, args, err := parseSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %v", err)
	}
	regMu.RLock()
	ctor, ok := stageRegistry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("pipeline: unknown stage %q (known: %s)", name, strings.Join(Stages(), ", "))
	}
	st, err := ctor(args, opts)
	if err != nil {
		return nil, fmt.Errorf("pipeline: stage %q: %v", name, err)
	}
	return st, nil
}

// NewAggregator builds one window aggregator from a spec like "krum(1)".
func NewAggregator(spec string, opts BuildOptions) (WindowAggregator, error) {
	name, args, err := parseSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %v", err)
	}
	regMu.RLock()
	ctor, ok := aggRegistry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("pipeline: unknown aggregator %q (known: %s)", name, strings.Join(Aggregators(), ", "))
	}
	agg, err := ctor(args, opts)
	if err != nil {
		return nil, fmt.Errorf("pipeline: aggregator %q: %v", name, err)
	}
	return agg, nil
}

// Build composes a pipeline from a comma-separated stage spec and one
// aggregator spec, e.g.
//
//	Build("staleness,norm-filter(100)", "krum(1)", opts)
//
// An empty stagesSpec composes no stages (every gradient is applied at
// scale 1 — FedAvg-style).
func Build(stagesSpec, aggSpec string, opts BuildOptions) (*Pipeline, error) {
	var stages []Stage
	if strings.TrimSpace(stagesSpec) != "" {
		for _, spec := range splitSpecs(stagesSpec) {
			st, err := NewStage(spec, opts)
			if err != nil {
				return nil, err
			}
			stages = append(stages, st)
		}
	}
	agg, err := NewAggregator(aggSpec, opts)
	if err != nil {
		return nil, err
	}
	return New(agg, stages...)
}

// splitSpecs splits a comma-separated spec list without breaking inside
// parentheses: "dp(1,0.5),staleness" → ["dp(1,0.5)", "staleness"].
func splitSpecs(s string) []string { return spec.Split(s) }
