// Package nn is a compact, dependency-free neural-network library used as
// the ML substrate of FLeet. It implements the layers needed by the paper's
// Table-1 CNNs (convolution, max pooling, dense, ReLU) with exact
// backpropagation, plus softmax/cross-entropy loss, parameter
// flattening/unflattening for gradient transport, and deterministic weight
// initialization.
//
// Networks process one sample at a time and average gradients over the
// mini-batch; this mirrors the per-example SGD formulation of the paper and
// keeps the implementation simple and auditable.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"fleet/internal/tensor"
)

// Layer is a differentiable network stage. Forward caches whatever Backward
// needs; layers are therefore stateful and not safe for concurrent use. Each
// worker operates on its own Network clone.
type Layer interface {
	// Forward computes the layer output for one sample.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward consumes dLoss/dOutput and returns dLoss/dInput, accumulating
	// parameter gradients internally.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's parameter tensors (possibly empty).
	Params() []*tensor.Tensor
	// Grads returns the accumulated parameter gradients, aligned with Params.
	Grads() []*tensor.Tensor
}

// Conv2D is a 2-D convolution over CHW inputs with symmetric zero padding.
// Weights are stored as (outC, inC*kh*kw) so the forward pass is one matmul
// on im2col patches.
type Conv2D struct {
	InC, InH, InW int
	OutC          int
	KH, KW        int
	StrideH       int
	StrideW       int
	PadH, PadW    int
	W             *tensor.Tensor // (OutC, InC*KH*KW)
	B             *tensor.Tensor // (OutC)
	gradW         *tensor.Tensor
	gradB         *tensor.Tensor
	lastCols      *tensor.Tensor
	outH, outW    int
}

// NewConv2D builds a convolution layer and He-initializes its weights.
func NewConv2D(rng *rand.Rand, inC, inH, inW, outC, kh, kw, strideH, strideW, padH, padW int) *Conv2D {
	patch := inC * kh * kw
	l := &Conv2D{
		InC: inC, InH: inH, InW: inW,
		OutC: outC, KH: kh, KW: kw,
		StrideH: strideH, StrideW: strideW,
		PadH: padH, PadW: padW,
		W:     tensor.New(outC, patch),
		B:     tensor.New(outC),
		gradW: tensor.New(outC, patch),
		gradB: tensor.New(outC),
		outH:  tensor.ConvOutputSize(inH, kh, strideH, padH),
		outW:  tensor.ConvOutputSize(inW, kw, strideW, padW),
	}
	heInit(rng, l.W.Data(), patch)
	return l
}

// Forward implements Layer.
func (l *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	cols := tensor.Im2Col(x, l.KH, l.KW, l.StrideH, l.StrideW, l.PadH, l.PadW)
	l.lastCols = cols
	// (outHW, patch) x (OutC, patch)ᵀ -> (outHW, OutC)
	out2d := tensor.MatMulTransB(cols, l.W)
	outHW := l.outH * l.outW
	out := tensor.New(l.OutC, l.outH, l.outW)
	for r := 0; r < outHW; r++ {
		for c := 0; c < l.OutC; c++ {
			out.Data()[c*outHW+r] = out2d.Data()[r*l.OutC+c] + l.B.Data()[c]
		}
	}
	return out
}

// Backward implements Layer.
func (l *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	outHW := l.outH * l.outW
	// Transpose CHW grad to (outHW, OutC).
	g2d := tensor.New(outHW, l.OutC)
	for c := 0; c < l.OutC; c++ {
		for r := 0; r < outHW; r++ {
			g2d.Data()[r*l.OutC+c] = grad.Data()[c*outHW+r]
		}
	}
	// gradW += g2dᵀ (OutC × outHW) * cols (outHW × patch).
	gw := tensor.MatMulTransA(g2d, l.lastCols)
	l.gradW.AddScaled(gw, 1)
	for c := 0; c < l.OutC; c++ {
		s := 0.0
		for r := 0; r < outHW; r++ {
			s += g2d.Data()[r*l.OutC+c]
		}
		l.gradB.Data()[c] += s
	}
	// gradCols = g2d (outHW × OutC) * W (OutC × patch).
	gcols := tensor.MatMul(g2d, l.W)
	return tensor.Col2Im(gcols, l.InC, l.InH, l.InW, l.KH, l.KW, l.StrideH, l.StrideW, l.PadH, l.PadW)
}

// Params implements Layer.
func (l *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{l.W, l.B} }

// Grads implements Layer.
func (l *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{l.gradW, l.gradB} }

// MaxPool2D is a channelwise max-pooling layer over CHW inputs.
type MaxPool2D struct {
	InC, InH, InW int
	KH, KW        int
	StrideH       int
	StrideW       int
	outH, outW    int
	lastArg       []int // flat input index of each output max
}

// NewMaxPool2D builds a max-pooling layer.
func NewMaxPool2D(inC, inH, inW, kh, kw, strideH, strideW int) *MaxPool2D {
	return &MaxPool2D{
		InC: inC, InH: inH, InW: inW,
		KH: kh, KW: kw, StrideH: strideH, StrideW: strideW,
		outH: tensor.ConvOutputSize(inH, kh, strideH, 0),
		outW: tensor.ConvOutputSize(inW, kw, strideW, 0),
	}
}

// Forward implements Layer.
func (l *MaxPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(l.InC, l.outH, l.outW)
	l.lastArg = make([]int, out.Len())
	oi := 0
	for c := 0; c < l.InC; c++ {
		base := c * l.InH * l.InW
		for oy := 0; oy < l.outH; oy++ {
			for ox := 0; ox < l.outW; ox++ {
				best := math.Inf(-1)
				bestIdx := -1
				for ky := 0; ky < l.KH; ky++ {
					iy := oy*l.StrideH + ky
					if iy >= l.InH {
						break
					}
					for kx := 0; kx < l.KW; kx++ {
						ix := ox*l.StrideW + kx
						if ix >= l.InW {
							break
						}
						idx := base + iy*l.InW + ix
						if v := x.Data()[idx]; v > best {
							best, bestIdx = v, idx
						}
					}
				}
				out.Data()[oi] = best
				l.lastArg[oi] = bestIdx
				oi++
			}
		}
	}
	return out
}

// Backward implements Layer.
func (l *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	in := tensor.New(l.InC, l.InH, l.InW)
	for oi, idx := range l.lastArg {
		in.Data()[idx] += grad.Data()[oi]
	}
	return in
}

// Params implements Layer.
func (l *MaxPool2D) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (l *MaxPool2D) Grads() []*tensor.Tensor { return nil }

// Dense is a fully connected layer y = Wx + b over flattened inputs.
type Dense struct {
	In, Out int
	W       *tensor.Tensor // (Out, In)
	B       *tensor.Tensor // (Out)
	gradW   *tensor.Tensor
	gradB   *tensor.Tensor
	lastIn  *tensor.Tensor
	inShape []int
}

// NewDense builds a dense layer and He-initializes its weights.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	l := &Dense{
		In: in, Out: out,
		W:     tensor.New(out, in),
		B:     tensor.New(out),
		gradW: tensor.New(out, in),
		gradB: tensor.New(out),
	}
	heInit(rng, l.W.Data(), in)
	return l
}

// Forward implements Layer. Any input shape with In total elements is
// accepted and flattened.
func (l *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Len() != l.In {
		panic(fmt.Sprintf("nn: Dense expects %d inputs, got shape %v", l.In, x.Shape()))
	}
	l.inShape = x.Shape()
	flat := x.Reshape(x.Len())
	l.lastIn = flat
	out := tensor.New(l.Out)
	for o := 0; o < l.Out; o++ {
		row := l.W.Data()[o*l.In : (o+1)*l.In]
		s := l.B.Data()[o]
		for i, v := range flat.Data() {
			s += row[i] * v
		}
		out.Data()[o] = s
	}
	return out
}

// Backward implements Layer.
func (l *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	in := tensor.New(l.In)
	for o := 0; o < l.Out; o++ {
		g := grad.Data()[o]
		l.gradB.Data()[o] += g
		if g == 0 {
			continue
		}
		wrow := l.W.Data()[o*l.In : (o+1)*l.In]
		gwrow := l.gradW.Data()[o*l.In : (o+1)*l.In]
		for i, v := range l.lastIn.Data() {
			gwrow[i] += g * v
			in.Data()[i] += g * wrow[i]
		}
	}
	return in.Reshape(l.inShape...)
}

// Params implements Layer.
func (l *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{l.W, l.B} }

// Grads implements Layer.
func (l *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{l.gradW, l.gradB} }

// ReLU is an elementwise rectifier.
type ReLU struct {
	lastIn *tensor.Tensor
}

// NewReLU builds a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (l *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	l.lastIn = x
	out := x.Clone()
	for i, v := range out.Data() {
		if v < 0 {
			out.Data()[i] = 0
		}
	}
	return out
}

// Backward implements Layer.
func (l *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	for i, v := range l.lastIn.Data() {
		if v < 0 {
			out.Data()[i] = 0
		}
	}
	return out
}

// Params implements Layer.
func (l *ReLU) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (l *ReLU) Grads() []*tensor.Tensor { return nil }

// heInit fills w with He-normal initialization for fan-in fanIn.
func heInit(rng *rand.Rand, w []float64, fanIn int) {
	std := math.Sqrt(2.0 / float64(fanIn))
	for i := range w {
		w[i] = rng.NormFloat64() * std
	}
}
