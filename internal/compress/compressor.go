// Compressor chains: the name→constructor table that makes uplink
// compression a first-class, spec-driven component like pipeline stages
// and admission policies. A chain spec reuses the internal/spec grammar —
// "topk(8)", "topk(12),q8", "topk(64),f16" — and builds into one
// Compressor that turns each dense gradient into its wire Form.
package compress

import (
	"fmt"
	"math/rand"
	"strings"

	"fleet/internal/spec"
)

// FormKind names the shape a wire Form is in; Build uses the declared
// (in, out) kinds of each stage to reject incompatible chains at
// construction time instead of on the hot path.
type FormKind int

const (
	// FormDense is an uncompressed float64 vector.
	FormDense FormKind = iota
	// FormSparse is a top-k index/value pair list with float64 values.
	FormSparse
	// FormSparseQ8 is a top-k list with 8-bit quantized values.
	FormSparseQ8
	// FormSparseF16 is a top-k list with binary16 values.
	FormSparseF16
)

// String names the kind as it appears in chain-compatibility errors.
func (k FormKind) String() string {
	switch k {
	case FormDense:
		return "dense"
	case FormSparse:
		return "sparse"
	case FormSparseQ8:
		return "sparse+q8"
	case FormSparseF16:
		return "sparse+f16"
	default:
		return fmt.Sprintf("FormKind(%d)", int(k))
	}
}

// Form is one gradient ready for the wire: exactly one of the payload
// fields is set, named by Kind. Encoding carries the self-describing wire
// tag (GradientPush.Encoding) for the form.
type Form struct {
	Kind     FormKind
	Encoding string
	Dense    []float64
	Sparse   *Sparse
	Q8       *SparseQ8
	F16      *SparseF16
}

// Wire tags for GradientPush.Encoding. The empty tag is the pre-tag
// dialect: receivers infer the form from which payload fields are set.
const (
	EncodingDense   = "dense"
	EncodingTopK    = "topk"
	EncodingTopKQ8  = "topk+q8"
	EncodingTopKF16 = "topk+f16"
)

// DenseForm wraps an uncompressed gradient as a chain input.
func DenseForm(grad []float64) Form {
	return Form{Kind: FormDense, Encoding: EncodingDense, Dense: grad}
}

// Compressor turns one dense gradient into its wire Form. Instances are
// stateful (top-k carries error feedback; quantizers carry an RNG) and
// belong to exactly one worker — one instance per uplink, like
// ErrorFeedback.
type Compressor interface {
	// Name returns the canonical chain spec, e.g. "topk(8),f16".
	Name() string
	// Compress maps a dense gradient to its wire form. The input is not
	// modified.
	Compress(grad []float64) Form
}

// Stage is one link of a compressor chain: it refines the Form produced
// by the previous link (the first link receives DenseForm).
type Stage interface {
	Name() string
	Transform(f Form) Form
	// Kinds declares the input form the stage consumes and the output
	// form it produces; Build validates adjacent links against them.
	Kinds() (in, out FormKind)
}

// Options carries the per-worker context a stage constructor may need.
type Options struct {
	// Length is the dense gradient length (required by topk's error
	// feedback).
	Length int
	// Rng drives stochastic rounding (required by q8 and f16). Give each
	// worker its own stream — quantization must not perturb the worker's
	// sampling RNG.
	Rng *rand.Rand
}

// chain is the Compressor built from a stage list.
type chain struct {
	name   string
	stages []Stage
}

func (c *chain) Name() string { return c.name }

func (c *chain) Compress(grad []float64) Form {
	f := DenseForm(grad)
	for _, st := range c.stages {
		f = st.Transform(f)
	}
	return f
}

// Build parses a comma-separated chain spec ("topk(8),f16") and
// constructs the Compressor. An empty spec returns (nil, nil): no
// compression, send dense. Adjacent links must agree on form kinds —
// "q8,topk(8)" or "q8,f16" fail here, not mid-training.
func Build(chainSpec string, opts Options) (Compressor, error) {
	chainSpec = strings.TrimSpace(chainSpec)
	if chainSpec == "" {
		return nil, nil
	}
	stages, err := spec.BuildList("compressor", compressors, chainSpec, opts)
	if err != nil {
		return nil, fmt.Errorf("compress: %w", err)
	}
	names := make([]string, len(stages))
	prev := FormDense
	for i, st := range stages {
		in, out := st.Kinds()
		if in != prev {
			return nil, fmt.Errorf("compress: stage %q wants %s input, chain produces %s", st.Name(), in, prev)
		}
		prev, names[i] = out, st.Name()
	}
	return &chain{name: strings.Join(names, ","), stages: stages}, nil
}

// topKStage sparsifies with error feedback: identical arithmetic to the
// legacy worker-side ErrorFeedback path, now addressable as "topk(k)".
type topKStage struct {
	feedback *ErrorFeedback
	k        int
}

func (t *topKStage) Name() string              { return fmt.Sprintf("topk(%d)", t.k) }
func (t *topKStage) Kinds() (in, out FormKind) { return FormDense, FormSparse }
func (t *topKStage) Transform(f Form) Form {
	s := t.feedback.Compress(f.Dense)
	return Form{Kind: FormSparse, Encoding: EncodingTopK, Sparse: &s}
}

// q8Stage quantizes sparse values to 8-bit levels with unbiased
// stochastic rounding.
type q8Stage struct{ rng *rand.Rand }

func (q *q8Stage) Name() string              { return "q8" }
func (q *q8Stage) Kinds() (in, out FormKind) { return FormSparse, FormSparseQ8 }
func (q *q8Stage) Transform(f Form) Form {
	qs := QuantizeSparseQ8(q.rng, *f.Sparse)
	return Form{Kind: FormSparseQ8, Encoding: EncodingTopKQ8, Q8: &qs}
}

// f16Stage quantizes sparse values to binary16 with unbiased stochastic
// rounding.
type f16Stage struct{ rng *rand.Rand }

func (q *f16Stage) Name() string              { return "f16" }
func (q *f16Stage) Kinds() (in, out FormKind) { return FormSparse, FormSparseF16 }
func (q *f16Stage) Transform(f Form) Form {
	qs := QuantizeSparseF16(q.rng, *f.Sparse)
	return Form{Kind: FormSparseF16, Encoding: EncodingTopKF16, F16: &qs}
}

// compressors names the chain links a compressor spec may use.
var compressors = map[string]spec.Ctor[Options, Stage]{
	"topk": func(args []float64, opts Options) (Stage, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("topk takes exactly one argument, got %d", len(args))
		}
		k, err := spec.IntArg(args[0], "topk")
		if err != nil {
			return nil, err
		}
		if k < 1 {
			return nil, fmt.Errorf("topk(%d): k must be >= 1", k)
		}
		if opts.Length <= 0 {
			return nil, fmt.Errorf("topk needs the gradient length (Options.Length)")
		}
		return &topKStage{feedback: NewErrorFeedback(opts.Length, k), k: k}, nil
	},
	"q8": func(args []float64, opts Options) (Stage, error) {
		if len(args) != 0 {
			return nil, fmt.Errorf("q8 takes no arguments")
		}
		if opts.Rng == nil {
			return nil, fmt.Errorf("q8 needs a stochastic-rounding RNG (Options.Rng)")
		}
		return &q8Stage{rng: opts.Rng}, nil
	},
	"f16": func(args []float64, opts Options) (Stage, error) {
		if len(args) != 0 {
			return nil, fmt.Errorf("f16 takes no arguments")
		}
		if opts.Rng == nil {
			return nil, fmt.Errorf("f16 needs a stochastic-rounding RNG (Options.Rng)")
		}
		return &f16Stage{rng: opts.Rng}, nil
	},
}
