package pipeline

import (
	"fmt"

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

// stages names the stage constructors a stages spec may use.
var stages = map[string]spec.Ctor[BuildOptions, Stage]{
	"staleness": func(args []float64, opts BuildOptions) (Stage, error) {
		if len(args) != 0 {
			return nil, fmt.Errorf("staleness takes no arguments")
		}
		return NewStalenessScale(opts.Algorithm)
	},
	"dp": func(args []float64, opts BuildOptions) (Stage, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("dp takes (clipNorm, noiseMultiplier), got %d args", len(args))
		}
		return NewDP(dp.Config{ClipNorm: args[0], NoiseMultiplier: args[1]}, opts.Seed)
	},
	"norm-filter": func(args []float64, _ BuildOptions) (Stage, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("norm-filter takes (maxL2Norm), got %d args", len(args))
		}
		return NewNormFilter(args[0])
	},
}

// aggregators names the window aggregator constructors.
var aggregators = map[string]spec.Ctor[BuildOptions, WindowAggregator]{
	"mean": func(args []float64, _ BuildOptions) (WindowAggregator, error) {
		if len(args) != 0 {
			return nil, fmt.Errorf("mean takes no arguments, got %v", args)
		}
		return NewMeanWindow(), nil
	},
	"median": func(args []float64, _ BuildOptions) (WindowAggregator, error) {
		if len(args) != 0 {
			return nil, fmt.Errorf("median takes no arguments")
		}
		return NewRetained(robust.CoordinateMedian{})
	},
	"trimmed": func(args []float64, _ BuildOptions) (WindowAggregator, error) {
		trim, err := optionalInt(args, "trimmed(trim)")
		if err != nil {
			return nil, err
		}
		return NewRetained(robust.TrimmedMean{Trim: trim})
	},
	"krum": func(args []float64, _ BuildOptions) (WindowAggregator, error) {
		f, err := optionalInt(args, "krum(f)")
		if err != nil {
			return nil, err
		}
		return NewRetained(robust.Krum{F: f})
	},
}

// optionalInt reads the one optional integral argument of a robust
// aggregator, 1 when absent — krum(0.9) must not quietly become Krum{F: 0}.
func optionalInt(args []float64, name string) (int, error) {
	switch len(args) {
	case 0:
		return 1, nil
	case 1:
		return spec.IntArg(args[0], name)
	default:
		return 0, fmt.Errorf("%s takes at most one argument, got %d", name, len(args))
	}
}

// Build composes a pipeline from a comma-separated stage spec and one
// aggregator spec, e.g.
//
//	Build("staleness,norm-filter(100)", "krum(1)", opts)
//
// An empty stagesSpec composes no stages (every gradient is applied at
// scale 1 — FedAvg-style).
func Build(stagesSpec, aggSpec string, opts BuildOptions) (*Pipeline, error) {
	sts, err := spec.BuildList("stage", stages, stagesSpec, opts)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	agg, err := spec.Build("aggregator", aggregators, aggSpec, opts)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	return New(agg, sts...)
}
