// Package tensor implements dense float64 tensors and the linear-algebra
// kernels used by the FLeet neural-network library: elementwise ops, matrix
// multiplication, and im2col-style patch extraction for convolutions.
//
// Tensors are row-major. The package favours explicitness and determinism
// over raw speed: there is no SIMD and no concurrency, which keeps gradient
// computations bit-for-bit reproducible across runs.
package tensor

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Tensor is a dense, row-major float64 tensor.
type Tensor struct {
	shape []int
	data  []float64
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float64, n)}
}

// FromSlice wraps data (not copied) with the given shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}
}

// Shape returns the tensor shape. The returned slice must not be mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Data returns the backing slice. Mutations are visible in the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view with a new shape; the element count must match.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, shape))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: t.data}
}

// AddScaled adds alpha*other elementwise in place.
func (t *Tensor) AddScaled(other *Tensor, alpha float64) {
	if len(t.data) != len(other.data) {
		panic("tensor: AddScaled size mismatch")
	}
	for i, v := range other.data {
		t.data[i] += alpha * v
	}
}

// Scale multiplies all elements by alpha in place.
func (t *Tensor) Scale(alpha float64) {
	for i := range t.data {
		t.data[i] *= alpha
	}
}

// MatMul computes C = A * B for 2-D tensors A (m×k) and B (k×n).
func MatMul(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: MatMul requires 2-D operands")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul %v x %v", a.shape, b.shape))
	}
	c := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		crow := c.data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
	return c
}

// MatMulTransA computes C = Aᵀ * B for A (k×m) and B (k×n).
func MatMulTransA(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: MatMulTransA requires 2-D operands")
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA %v x %v", a.shape, b.shape))
	}
	c := New(m, n)
	for p := 0; p < k; p++ {
		arow := a.data[p*m : (p+1)*m]
		brow := b.data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			crow := c.data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
	return c
}

// MatMulTransB computes C = A * Bᵀ for A (m×k) and B (n×k).
func MatMulTransB(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: MatMulTransB requires 2-D operands")
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB %v x %v", a.shape, b.shape))
	}
	c := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		crow := c.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.data[j*k : (j+1)*k]
			s := 0.0
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			crow[j] = s
		}
	}
	return c
}

// ArgMax returns the index of the maximum element.
func (t *Tensor) ArgMax() int {
	best, bestIdx := math.Inf(-1), 0
	for i, v := range t.data {
		if v > best {
			best, bestIdx = v, i
		}
	}
	return bestIdx
}

// String renders small tensors for debugging.
func (t *Tensor) String() string {
	var sb strings.Builder
	sb.WriteString("tensor")
	sb.WriteString(fmt.Sprint(t.shape))
	sb.WriteByte('[')
	limit := len(t.data)
	if limit > 16 {
		limit = 16
	}
	for i := 0; i < limit; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(strconv.FormatFloat(t.data[i], 'g', 4, 64))
	}
	if limit < len(t.data) {
		sb.WriteString(" ...")
	}
	sb.WriteByte(']')
	return sb.String()
}
