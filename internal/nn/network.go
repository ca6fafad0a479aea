package nn

import (
	"fmt"
	"math"
	"slices"

	"fleet/internal/tensor"
)

// Sample is one labelled training example. X is the input tensor (e.g. CHW
// image) and Label the class index.
type Sample struct {
	X     *tensor.Tensor
	Label int
}

// Network is a feed-forward stack of layers terminated by an implicit
// softmax/cross-entropy head. Every layer's parameters live in one contiguous
// arena and their accumulated gradients in a second one, both in layer order
// (the order of the flat vectors that travel the wire); the layers' tensors
// are views into them, so a write through Layers[i].Params() is a write to
// the arena and the whole model moves with one copy.
type Network struct {
	Layers  []Layer
	Classes int
	params  []float64
	grads   []float64
}

// NewNetwork assembles a network, moving the layers' freshly initialized
// parameter and gradient tensors into the network's arenas: a layer belongs
// to one network. classes is the size of the final layer output (used by the
// softmax/cross-entropy head).
func NewNetwork(classes int, layers ...Layer) *Network {
	n := &Network{Layers: layers, Classes: classes}
	count := 0
	for _, l := range layers {
		for _, p := range l.Params() {
			count += p.Len()
		}
	}
	n.params, n.grads = make([]float64, count), make([]float64, count)
	off := 0
	for _, l := range layers {
		grads := l.Grads()
		for i, p := range l.Params() {
			end := off + p.Len()
			adopt(p, n.params[off:end:end])
			adopt(grads[i], n.grads[off:end:end])
			off = end
		}
	}
	return n
}

// adopt moves t's elements into view and makes view its storage.
func adopt(t *tensor.Tensor, view []float64) {
	copy(view, t.Data())
	*t = *tensor.FromSlice(view, t.Shape()...)
}

// Forward runs the network and returns the raw logits for one sample.
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := x
	for _, l := range n.Layers {
		out = l.Forward(out)
	}
	return out
}

// Predict returns the argmax class for one input.
func (n *Network) Predict(x *tensor.Tensor) int {
	return n.Forward(x).ArgMax()
}

// Softmax converts logits to a probability vector.
func Softmax(logits *tensor.Tensor) []float64 {
	maxV := math.Inf(-1)
	for _, v := range logits.Data() {
		if v > maxV {
			maxV = v
		}
	}
	probs := make([]float64, logits.Len())
	sum := 0.0
	for i, v := range logits.Data() {
		e := math.Exp(v - maxV)
		probs[i] = e
		sum += e
	}
	for i := range probs {
		probs[i] /= sum
	}
	return probs
}

// LossAndBackward runs one sample forward, computes cross-entropy loss
// against the label, and backpropagates, accumulating parameter gradients in
// the layers. It returns the sample loss.
func (n *Network) LossAndBackward(s Sample) float64 {
	logits := n.Forward(s.X)
	probs := Softmax(logits)
	if s.Label < 0 || s.Label >= len(probs) {
		panic(fmt.Sprintf("nn: label %d out of range for %d classes", s.Label, len(probs)))
	}
	loss := -math.Log(math.Max(probs[s.Label], 1e-12))
	grad := tensor.New(logits.Len())
	for i, p := range probs {
		grad.Data()[i] = p
	}
	grad.Data()[s.Label] -= 1
	g := grad
	for i := len(n.Layers) - 1; i >= 0; i-- {
		g = n.Layers[i].Backward(g)
	}
	return loss
}

// Gradient computes the average gradient over a mini-batch, returned as a
// flat vector aligned with ParamVector. It also returns the mean loss.
func (n *Network) Gradient(batch []Sample) ([]float64, float64) {
	if len(batch) == 0 {
		panic("nn: Gradient on empty batch")
	}
	n.ZeroGrads()
	totalLoss := 0.0
	for _, s := range batch {
		totalLoss += n.LossAndBackward(s)
	}
	inv := 1.0 / float64(len(batch))
	grad := make([]float64, len(n.grads))
	for i, v := range n.grads {
		grad[i] = v * inv
	}
	return grad, totalLoss * inv
}

// ZeroGrads clears accumulated gradients in all layers.
func (n *Network) ZeroGrads() { clear(n.grads) }

// ParamCount returns the total number of trainable parameters.
func (n *Network) ParamCount() int { return len(n.params) }

// ParamVector returns a flat copy of all parameters.
func (n *Network) ParamVector() []float64 { return slices.Clone(n.params) }

// CopyParams copies all parameters into dst's storage, which is reused when
// it is large enough and allocated (not zeroed first) otherwise, and returns
// the filled vector: ParamVector for a caller that recycles its buffers.
func (n *Network) CopyParams(dst []float64) []float64 { return append(dst[:0], n.params...) }

// SetParams loads a flat parameter vector produced by ParamVector.
func (n *Network) SetParams(v []float64) {
	if len(v) != len(n.params) {
		panic(fmt.Sprintf("nn: SetParams got %d values, want %d", len(v), len(n.params)))
	}
	copy(n.params, v)
}

// ApplyGradient performs an in-place SGD step: params -= lr * grad. The
// product is rounded before the subtraction (an explicit conversion), so no
// architecture fuses the two into one multiply-add.
func (n *Network) ApplyGradient(grad []float64, lr float64) {
	if len(grad) != len(n.params) {
		panic(fmt.Sprintf("nn: ApplyGradient got %d values, want %d", len(grad), len(n.params)))
	}
	for i, g := range grad {
		n.params[i] -= float64(lr * g)
	}
}

// ApplyGradientAt is ApplyGradient restricted to the coordinate list idx:
// params[i] -= lr * grad[i] for i in idx, at O(len(idx)) instead of
// O(params). Where grad is +0 off the list and lr is finite and positive the
// result is bit-for-bit ApplyGradient's: x − (+0) is x for every x. (A
// negative lr would make the skipped term −0, and −0 − (−0) is +0.)
//
// It also records the step it made: each coordinate whose float64 bits
// changed (compress.Diff's test, so +0 → −0 counts and a NaN that keeps its
// bits does not) is appended to stepIdx with its new value to stepVals, in
// idx's order. For a strictly ascending idx that is the exact sparse delta
// from the parameters before the call to those after it.
func (n *Network) ApplyGradientAt(idx []int32, grad []float64, lr float64, stepIdx []int32, stepVals []float64) ([]int32, []float64) {
	if len(grad) != len(n.params) {
		panic(fmt.Sprintf("nn: ApplyGradientAt got %d values, want %d", len(grad), len(n.params)))
	}
	// Every write is stored in the next free slot, which only a changed
	// value keeps: no branch around the stores, one append's worth of
	// capacity reserved up front.
	k := len(stepIdx)
	stepIdx = slices.Grow(stepIdx, len(idx))[:k+len(idx)]
	stepVals = slices.Grow(stepVals, len(idx))[:k+len(idx)]
	for _, i := range idx {
		old := n.params[i]
		v := old - float64(lr*grad[i])
		n.params[i] = v
		stepIdx[k], stepVals[k] = i, v
		if math.Float64bits(v) != math.Float64bits(old) {
			k++
		}
	}
	return stepIdx[:k], stepVals[:k]
}

// Accuracy evaluates top-1 accuracy over a sample set.
func (n *Network) Accuracy(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		if n.Predict(s.X) == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

// ClassAccuracy evaluates top-1 accuracy restricted to samples of one class.
// It returns 0 when the class is absent from the set.
func (n *Network) ClassAccuracy(samples []Sample, class int) float64 {
	correct, total := 0, 0
	for _, s := range samples {
		if s.Label != class {
			continue
		}
		total++
		if n.Predict(s.X) == s.Label {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
