package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	a := New(2, 3)
	if a.Len() != 6 {
		t.Fatalf("Len = %d, want 6", a.Len())
	}
	for _, v := range a.Data() {
		if v != 0 {
			t.Fatal("New must zero-initialize")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 0)
}

func TestFromSliceRoundTrip(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	a := FromSlice(d, 2, 3)
	if a.Shape()[0] != 2 || a.Shape()[1] != 3 || &a.Data()[4] != &d[4] {
		t.Fatalf("FromSlice(%v, 2, 3) = %v", d, a)
	}
	a.Data()[4] = 9
	if d[4] != 9 {
		t.Fatal("FromSlice must alias the input slice")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestCloneIndependent(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := a.Clone()
	b.Data()[0] = 5
	if a.Data()[0] != 1 {
		t.Fatal("Clone must deep copy")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := a.Reshape(4)
	b.Data()[2] = 7
	if a.Data()[2] != 7 {
		t.Fatal("Reshape must share data")
	}
}

func TestReshapePanicsOnCountMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).Reshape(3)
}

func TestAddScaledAndScale(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{10, 20}, 2)
	a.AddScaled(b, 0.5)
	if a.Data()[0] != 6 || a.Data()[1] != 12 {
		t.Fatalf("AddScaled result %v", a)
	}
	a.Scale(2)
	if a.Data()[0] != 12 || a.Data()[1] != 24 {
		t.Fatalf("Scale result %v", a)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("MatMul = %v, want %v", c.Data(), want)
		}
	}
}

func TestMatMulTransAMatchesExplicit(t *testing.T) {
	// Aᵀ*B where A is (k×m) must equal MatMul(transpose(A), B).
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2) // k=3, m=2
	b := FromSlice([]float64{1, 0, 0, 1, 1, 1}, 3, 2) // k=3, n=2
	got := MatMulTransA(a, b)
	at := FromSlice([]float64{1, 3, 5, 2, 4, 6}, 2, 3)
	want := MatMul(at, b)
	for i := range want.Data() {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("MatMulTransA = %v, want %v", got.Data(), want.Data())
		}
	}
}

func TestMatMulTransBMatchesExplicit(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	got := MatMulTransB(a, b)
	bt := FromSlice([]float64{5, 7, 6, 8}, 2, 2)
	want := MatMul(a, bt)
	for i := range want.Data() {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("MatMulTransB = %v, want %v", got.Data(), want.Data())
		}
	}
}

func TestMatMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestArgMax(t *testing.T) {
	a := FromSlice([]float64{-1, 5, 3}, 3)
	if got := a.ArgMax(); got != 1 {
		t.Errorf("ArgMax = %d, want 1", got)
	}
}

func TestMatMulAssociativityWithIdentity(t *testing.T) {
	err := quick.Check(func(vals [9]float64) bool {
		d := make([]float64, 9)
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			d[i] = math.Mod(v, 100)
		}
		a := FromSlice(d, 3, 3)
		id := New(3, 3)
		for i := 0; i < 3; i++ {
			id.Data()[i*3+i] = 1
		}
		c := MatMul(a, id)
		for i := range c.Data() {
			if c.Data()[i] != a.Data()[i] {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel with stride 1 must reproduce the image, one pixel per row.
	img := FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	cols := Im2Col(img, 1, 1, 1, 1, 0, 0)
	if cols.Shape()[0] != 4 || cols.Shape()[1] != 1 {
		t.Fatalf("cols shape %v", cols.Shape())
	}
	for i, want := range []float64{1, 2, 3, 4} {
		if cols.Data()[i] != want {
			t.Fatalf("cols = %v", cols.Data())
		}
	}
}

func TestIm2ColPatchContents(t *testing.T) {
	// 2x2 image, 2x2 kernel, stride 1, no pad -> a single patch row.
	img := FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	cols := Im2Col(img, 2, 2, 1, 1, 0, 0)
	want := []float64{1, 2, 3, 4}
	for i, v := range cols.Data() {
		if v != want[i] {
			t.Fatalf("patch = %v, want %v", cols.Data(), want)
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	img := FromSlice([]float64{5}, 1, 1, 1)
	cols := Im2Col(img, 3, 3, 1, 1, 1, 1)
	if cols.Shape()[0] != 1 || cols.Shape()[1] != 9 {
		t.Fatalf("cols shape %v", cols.Shape())
	}
	sum := 0.0
	for _, v := range cols.Data() {
		sum += v
	}
	if sum != 5 || cols.Data()[4] != 5 {
		t.Fatalf("padded patch = %v", cols.Data())
	}
}

func TestCol2ImAdjointOfIm2Col(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> — the defining adjoint property.
	const c, h, w, kh, kw = 2, 4, 4, 3, 3
	x := New(c, h, w)
	for i := range x.Data() {
		x.Data()[i] = float64(i%7) - 3
	}
	cols := Im2Col(x, kh, kw, 1, 1, 1, 1)
	y := New(cols.Shape()...)
	for i := range y.Data() {
		y.Data()[i] = float64((i*13)%5) - 2
	}
	dot := func(a, b *Tensor) float64 {
		s := 0.0
		for i, v := range a.Data() {
			s += v * b.Data()[i]
		}
		return s
	}
	lhs := dot(cols, y)
	back := Col2Im(y, c, h, w, kh, kw, 1, 1, 1, 1)
	rhs := dot(x, back)
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint property violated: %v vs %v", lhs, rhs)
	}
}

func TestConvOutputSize(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{28, 5, 1, 0, 24},
		{28, 5, 1, 2, 28},
		{24, 3, 3, 0, 8},
		{32, 3, 1, 0, 30},
	}
	for _, c := range cases {
		if got := ConvOutputSize(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("ConvOutputSize(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}
