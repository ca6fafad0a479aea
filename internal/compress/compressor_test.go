package compress

import (
	"math/rand"
	"strings"
	"testing"
)

func TestBuildEmptySpec(t *testing.T) {
	c, err := Build("", Options{})
	if err != nil || c != nil {
		t.Fatalf("empty spec: (%v, %v), want (nil, nil)", c, err)
	}
	c, err = Build("  ", Options{})
	if err != nil || c != nil {
		t.Fatalf("blank spec: (%v, %v), want (nil, nil)", c, err)
	}
}

// TestTopKChainMatchesErrorFeedback: the registry-built "topk(k)" chain is
// the legacy ErrorFeedback path under a name — identical output, residual
// carry-over included.
func TestTopKChainMatchesErrorFeedback(t *testing.T) {
	const n, k = 64, 4
	c, err := Build("topk(4)", Options{Length: n})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "topk(4)" {
		t.Fatalf("chain name %q", c.Name())
	}
	legacy := NewErrorFeedback(n, k)
	rng := rand.New(rand.NewSource(8))
	for round := 0; round < 5; round++ {
		grad := make([]float64, n)
		for i := range grad {
			grad[i] = rng.NormFloat64()
		}
		f := c.Compress(grad)
		want := legacy.Compress(grad)
		if f.Encoding != EncodingTopK || f.Sparse == nil {
			t.Fatalf("round %d: form %q", round, f.Encoding)
		}
		if len(f.Sparse.Values) != len(want.Values) {
			t.Fatalf("round %d: %d values, want %d", round, len(f.Sparse.Values), len(want.Values))
		}
		for j := range want.Values {
			if f.Sparse.Indices[j] != want.Indices[j] || f.Sparse.Values[j] != want.Values[j] {
				t.Fatalf("round %d coord %d: (%d,%v) vs (%d,%v)", round, j,
					f.Sparse.Indices[j], f.Sparse.Values[j], want.Indices[j], want.Values[j])
			}
		}
	}
}

func TestQuantizedChains(t *testing.T) {
	grad := make([]float64, 32)
	rng := rand.New(rand.NewSource(4))
	for i := range grad {
		grad[i] = rng.NormFloat64()
	}
	c, err := Build("topk(8),q8", Options{Length: 32, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "topk(8),q8" {
		t.Fatalf("chain name %q", c.Name())
	}
	f := c.Compress(grad)
	if f.Encoding != EncodingTopKQ8 || f.Q8 == nil || len(f.Q8.Levels) != 8 {
		t.Fatalf("q8 chain form: %+v", f)
	}

	c, err = Build("topk(8),f16", Options{Length: 32, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	f = c.Compress(grad)
	if f.Encoding != EncodingTopKF16 || f.F16 == nil || len(f.F16.Values) != 8 {
		t.Fatalf("f16 chain form: %+v", f)
	}
}

func TestBuildErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		spec string
		opts Options
		want string
	}{
		{"nope(3)", Options{}, "unknown compressor"},
		{"nope", Options{}, `unknown compressor "nope" (known: f16, q8, topk)`},
		{"q8", Options{Rng: rng}, "wants topk input, chain produces dense"},
		{"f16", Options{Rng: rng}, "wants topk input"},
		{"topk(8),f16,q8", Options{Length: 10, Rng: rng}, "wants topk input, chain produces topk+f16"},
		{"topk(8),q8,f16", Options{Length: 10, Rng: rng}, "wants topk input, chain produces topk+q8"},
		{"topk(8),topk(4)", Options{Length: 10}, "wants dense input, chain produces topk"},
		{"topk", Options{Length: 10}, "exactly one argument"},
		{"topk(0)", Options{Length: 10}, "k must be >= 1"},
		{"topk(2.5)", Options{Length: 10}, "integer"},
		{"topk(8)", Options{}, "Options.Length"},
		{"topk(8),q8", Options{Length: 10}, "Options.Rng"},
		{"topk(8),f16", Options{Length: 10}, "Options.Rng"},
	}
	for _, tc := range cases {
		_, err := Build(tc.spec, tc.opts)
		if err == nil {
			t.Errorf("Build(%q) must fail", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Build(%q) error %q, want substring %q", tc.spec, err, tc.want)
		}
	}
}

func TestCompressorsListed(t *testing.T) {
	for _, want := range []string{"topk", "q8", "f16"} {
		if compressors[want] == nil {
			t.Errorf("built-in %q missing from the compressor table", want)
		}
	}
}
