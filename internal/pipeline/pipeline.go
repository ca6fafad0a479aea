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

	"fleet/internal/learning"
	"fleet/internal/protocol"
)

// Gradient is one in-flight gradient moving through the pipeline.
type Gradient struct {
	// Vec is the dense gradient. On the serving path it aliases the
	// pusher's slice, so stages that rewrite values must replace Vec with
	// a transformed copy (see DP) — never mutate the caller's memory in
	// place. Stages that only read Vec or adjust Scale need not copy.
	//
	// Sparse form: when Indices is non-nil, Vec holds only the values at
	// those coordinates of a dense vector of length DenseLen — a top-k
	// push travelling without densification. Only pipelines whose stages
	// are all SparseSafe and whose aggregator implements SparseAdder see
	// sparse gradients (the server gates on Pipeline.SparseCapable);
	// everything else receives dense vectors exactly as before.
	Vec []float64
	// Indices are the dense coordinates of a sparse Vec (strictly
	// ascending, validated at the wire boundary); nil for dense gradients.
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

// Stage is one per-gradient transform of the update pipeline. Stages must
// be safe for concurrent use: the server runs them from many handler
// goroutines.
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
	// Add accumulates one processed gradient (vec at the given scale) into
	// the current window. It must be safe for concurrent use and must not
	// retain vec.
	Add(vec []float64, scale float64)
	// Drain folds the buffered window into the model via apply — at most
	// one call, with the window's one update direction — and resets it.
	// The server serializes Drain under its model lock; an error (e.g. a
	// window the aggregation rule rejects) discards the window and is
	// surfaced to the push that completed it — a window-level failure has
	// no better addressee, so custom aggregators should reserve errors for
	// windows that are genuinely unusable.
	Drain(apply func(direction []float64)) error
}

// SparseSafe marks a Stage whose Process is correct when g carries a
// sparse gradient (g.Indices non-nil, Vec holding only the nonzero
// values). True for stages that only touch Scale (staleness) or whose
// read of Vec is invariant under the zero coordinates (an L2 norm over
// the nonzeros is the dense norm). Stages that rewrite or must see every
// coordinate — DP noise touches all of them — do not implement it, and
// the pipeline then receives densified vectors.
type SparseSafe interface {
	SparseSafe() bool
}

// SparseAdder is a WindowAggregator that can accumulate a sparse gradient
// without densifying it: scale·vals[j] scattered into the window at
// idx[j]. Implementations must match their Add bit-for-bit on the touched
// coordinates (MeanWindow scatters into the same accumulator).
type SparseAdder interface {
	AddSparse(denseLen int, idx []int32, vals []float64, scale float64)
}

// TouchedDrainer is a WindowAggregator whose drain can say where its
// direction may be nonzero. touched is non-nil only when that direction is
// the whole drain and summed nothing but sparse gradients: it then lists,
// ascending, every coordinate the window wrote, and the server applies the
// direction and finds the model's step delta at those coordinates instead
// of over all of them. nil means any coordinate may be set. The list is the
// aggregator's scratch, valid until its next drain.
type TouchedDrainer interface {
	DrainTouched(apply func(direction []float64, touched []int32)) error
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
// Sparse gradients scatter directly into a SparseAdder aggregator; as a
// safety net against callers that skipped the SparseCapable gate, they
// densify in front of anything else.
func (p *Pipeline) Add(g *Gradient) {
	if g.Indices != nil {
		if sa, ok := p.agg.(SparseAdder); ok {
			sa.AddSparse(g.DenseLen, g.Indices, g.Vec, g.Scale)
			return
		}
		dense := make([]float64, g.DenseLen)
		for j, id := range g.Indices {
			dense[id] = g.Vec[j]
		}
		p.agg.Add(dense, g.Scale)
		return
	}
	p.agg.Add(g.Vec, g.Scale)
}

// SparseCapable reports whether this pipeline can carry sparse gradients
// end-to-end: every stage implements SparseSafe and the aggregator
// implements SparseAdder. The server checks it once at construction and
// densifies top-k pushes up front when it is false.
func (p *Pipeline) SparseCapable() bool {
	if _, ok := p.agg.(SparseAdder); !ok {
		return false
	}
	for _, st := range p.stages {
		ss, ok := st.(SparseSafe)
		if !ok || !ss.SparseSafe() {
			return false
		}
	}
	return true
}

// Drain folds the current window into the model via apply. Errors are
// surfaced as invalid_argument protocol errors (the window is discarded).
func (p *Pipeline) Drain(apply func(direction []float64)) error {
	return p.drainError(p.agg.Drain(apply))
}

// DrainTouched is Drain with the aggregator's touched list passed through
// (see TouchedDrainer); an aggregator that keeps none reports nil.
func (p *Pipeline) DrainTouched(apply func(direction []float64, touched []int32)) error {
	if td, ok := p.agg.(TouchedDrainer); ok {
		return p.drainError(td.DrainTouched(apply))
	}
	return p.Drain(func(direction []float64) { apply(direction, nil) })
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
