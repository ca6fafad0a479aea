// Package pipeline implements the server's composable update pipeline: the
// path every pushed gradient travels between protocol validation and the
// global model. The paper (§4) frames Byzantine-resilient aggregation and
// DP perturbation as *pluggable* into FLeet; this package is that plug
// point for the live serving path, mirroring how internal/service composes
// cross-cutting concerns around the transport.
//
// A pipeline is a chain of per-gradient Stages feeding one WindowAggregator:
//
//	push ─▶ [Stage₁ … Stageₙ] ─▶ WindowAggregator.Add ─┐
//	                                                   │ every K pushes
//	                              model ◀─ Drain ◀─────┘
//
// Stages transform one gradient at a time — staleness scaling wrapping a
// learning.Algorithm, DP clip+noise wrapping dp.Perturb, an L2 norm filter
// rejecting malformed pushes. The WindowAggregator owns the K-window of
// Equation 3: MeanWindow sums the window into one accumulator (bit-for-bit
// the pre-pipeline server), while NewRetained buffers the K
// scaled gradients so Byzantine-resilient rules (internal/robust) can see
// the whole window before emitting one direction.
//
// Pipelines are built directly (New) or from string specs via the
// name→constructor registry (Build), which is what cmd/fleet-server flags
// and ServerConfig use.
package pipeline

import (
	"strings"

	"fleet/internal/compress"
	"fleet/internal/learning"
	"fleet/internal/protocol"
)

// Gradient is one in-flight gradient moving through the pipeline, dense or
// sparse. A gradient stays in the form it arrived in until it reaches code
// that needs every coordinate; that code calls Densify.
type Gradient struct {
	// Vec is the dense gradient, or a sparse one's values (see Indices).
	// On the serving path it aliases the pusher's slice, so stages that
	// rewrite values must replace Vec with a transformed copy (see DP) —
	// never mutate the caller's memory in place. Stages that only read Vec
	// or adjust Scale need not copy.
	Vec []float64
	// Indices, when non-nil, make g sparse: Vec holds only the values at
	// these coordinates (strictly ascending, validated at the wire
	// boundary) of a dense vector of length DenseLen, the others being +0.
	// A top-k push travels the pipeline in this form. nil for dense
	// gradients.
	Indices []int32
	// DenseLen is the dense length a sparse Vec scatters into; 0 for
	// dense gradients.
	DenseLen int
	// Meta carries the server-side metadata (staleness, similarity, batch
	// size, worker id) stages scale or filter on.
	Meta learning.GradientMeta
	// Scale is the multiplicative Equation-3 factor accumulated by the
	// stages; it starts at 1 and the aggregator applies it on Add.
	Scale float64
}

// Densify turns a sparse g into its dense form, in fresh storage; a dense
// g is left as it is. It never writes the arrays g aliased, so a stage or
// aggregator may call it on the pusher's gradient.
func (g *Gradient) Densify() {
	if g.Indices == nil {
		return
	}
	g.Vec = compress.Sparse{Len: g.DenseLen, Indices: g.Indices, Values: g.Vec}.Dense()
	g.Indices, g.DenseLen = nil, 0
}

// Stage is one per-gradient transform of the update pipeline. Stages must
// be safe for concurrent use: the server runs them from many handler
// goroutines. g may be sparse: a stage that reads Vec coordinate by
// coordinate either holds for a sparse Vec (the zeros it omits change
// nothing, as for an L2 norm) or calls g.Densify first (as DP does).
type Stage interface {
	// Name returns the stage's display name (exposed in /v1/stats).
	Name() string
	// Process transforms g in place. Returning an error rejects the
	// gradient: it is neither counted nor accumulated, and the pipeline
	// surfaces the error to the pusher as invalid_argument.
	Process(g *Gradient) error
}

// WindowAggregator owns the K-window of Equation 3: it accumulates
// processed gradients and periodically folds them into the model.
type WindowAggregator interface {
	// Name returns the aggregator's display name (exposed in /v1/stats).
	Name() string
	// Add accumulates one processed gradient, g.Vec at g.Scale, dense or
	// sparse, into the current window. It must be safe for concurrent use
	// and must not retain g or write the arrays it aliases; it may call
	// g.Densify.
	Add(g *Gradient)
	// Drain folds the buffered window into the model via apply — at most
	// one call, with the window's one update direction — and resets it.
	// touched says where the direction may be nonzero: non-nil only when
	// the window summed nothing but sparse gradients, it lists, ascending,
	// every coordinate the window wrote, and the server applies the
	// direction at those coordinates only, recording the model's step
	// delta as it writes them instead of diffing the whole vector. nil
	// means any coordinate may be set. Both slices are the aggregator's,
	// valid until its next drain.
	//
	// The server serializes Drain under its model lock; an error (e.g. a
	// window the aggregation rule rejects) discards the window and is
	// surfaced to the push that completed it — a window-level failure has
	// no better addressee, so custom aggregators should reserve errors for
	// windows that are genuinely unusable.
	Drain(apply func(direction []float64, touched []int32)) error
}

// Pipeline chains Stages in front of a WindowAggregator.
type Pipeline struct {
	stages []Stage
	agg    WindowAggregator
}

// New composes stages (run in order) in front of agg.
func New(agg WindowAggregator, stages ...Stage) (*Pipeline, error) {
	if agg == nil {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument, "pipeline: a WindowAggregator is required")
	}
	for i, st := range stages {
		if st == nil {
			return nil, protocol.Errorf(protocol.CodeInvalidArgument, "pipeline: stage %d is nil", i)
		}
	}
	return &Pipeline{stages: stages, agg: agg}, nil
}

// Process runs g through every stage in order. The first stage error
// rejects the gradient with an invalid_argument protocol error (stages
// returning a structured *protocol.Error keep their code).
func (p *Pipeline) Process(g *Gradient) error {
	if g == nil || len(g.Vec) == 0 {
		return protocol.Errorf(protocol.CodeInvalidArgument, "pipeline: empty gradient")
	}
	if g.Scale == 0 {
		g.Scale = 1
	}
	for _, st := range p.stages {
		if err := st.Process(g); err != nil {
			if pe, ok := err.(*protocol.Error); ok {
				return pe
			}
			return protocol.Errorf(protocol.CodeInvalidArgument, "pipeline: stage %s: %v", st.Name(), err)
		}
	}
	return nil
}

// Add accumulates a processed gradient into the aggregation window.
func (p *Pipeline) Add(g *Gradient) { p.agg.Add(g) }

// Drain folds the current window into the model via apply. Errors are
// surfaced as invalid_argument protocol errors (the window is discarded).
func (p *Pipeline) Drain(apply func(direction []float64)) error {
	return p.DrainTouched(func(direction []float64, _ []int32) { apply(direction) })
}

// DrainTouched is Drain with the aggregator's touched list passed through
// (see WindowAggregator.Drain).
func (p *Pipeline) DrainTouched(apply func(direction []float64, touched []int32)) error {
	return p.drainError(p.agg.Drain(apply))
}

func (p *Pipeline) drainError(err error) error {
	if err == nil {
		return nil
	}
	if pe, ok := err.(*protocol.Error); ok {
		return pe
	}
	return protocol.Errorf(protocol.CodeInvalidArgument, "pipeline: aggregator %s: %v", p.agg.Name(), err)
}

// StageNames lists the composed stage names in order.
func (p *Pipeline) StageNames() []string {
	names := make([]string, len(p.stages))
	for i, st := range p.stages {
		names[i] = st.Name()
	}
	return names
}

// NoiseMultiplier returns σ of the pipeline's dp stage, and whether it has
// one: the mechanism a privacy budget composes.
func (p *Pipeline) NoiseMultiplier() (float64, bool) {
	for _, st := range p.stages {
		if d, ok := st.(*DP); ok {
			return d.cfg.NoiseMultiplier, true
		}
	}
	return 0, false
}

// AggregatorName returns the window aggregator's display name.
func (p *Pipeline) AggregatorName() string { return p.agg.Name() }

// String renders the composed pipeline, e.g.
// "staleness(AdaSGD) | norm-filter(100) -> krum(f=1)".
func (p *Pipeline) String() string {
	if len(p.stages) == 0 {
		return "-> " + p.agg.Name()
	}
	return strings.Join(p.StageNames(), " | ") + " -> " + p.agg.Name()
}
