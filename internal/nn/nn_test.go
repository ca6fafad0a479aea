package nn

import (
	"math"
	"slices"
	"testing"

	"fleet/internal/simrand"
	"fleet/internal/tensor"
)

// numericalGradCheck compares backprop gradients against central finite
// differences for every parameter of the network on one sample.
func numericalGradCheck(t *testing.T, net *Network, s Sample, tol float64) {
	t.Helper()
	grad, _ := net.Gradient([]Sample{s})
	params := net.ParamVector()
	const eps = 1e-5
	checked := 0
	// Check a deterministic subset (every 7th parameter) to keep tests fast.
	for i := 0; i < len(params); i += 7 {
		orig := params[i]
		params[i] = orig + eps
		net.SetParams(params)
		lossPlus := sampleLoss(net, s)
		params[i] = orig - eps
		net.SetParams(params)
		lossMinus := sampleLoss(net, s)
		params[i] = orig
		net.SetParams(params)
		numGrad := (lossPlus - lossMinus) / (2 * eps)
		if math.Abs(numGrad-grad[i]) > tol*(1+math.Abs(numGrad)) {
			t.Fatalf("param %d: backprop grad %v vs numerical %v", i, grad[i], numGrad)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no parameters checked")
	}
}

func sampleLoss(net *Network, s Sample) float64 {
	probs := Softmax(net.Forward(s.X))
	return -math.Log(math.Max(probs[s.Label], 1e-12))
}

func randomSample(seed int64, c, h, w, classes int) Sample {
	rng := simrand.New(seed)
	x := tensor.New(c, h, w)
	for i := range x.Data() {
		x.Data()[i] = rng.Float64()
	}
	return Sample{X: x, Label: rng.Intn(classes)}
}

func TestGradCheckDense(t *testing.T) {
	rng := simrand.New(1)
	net := NewNetwork(3, NewDense(rng, 8, 3))
	numericalGradCheck(t, net, randomSample(2, 1, 2, 4, 3), 1e-4)
}

func TestGradCheckDenseReLUStack(t *testing.T) {
	rng := simrand.New(3)
	net := NewNetwork(4, NewDense(rng, 10, 6), NewReLU(), NewDense(rng, 6, 4))
	numericalGradCheck(t, net, randomSample(4, 1, 2, 5, 4), 1e-4)
}

func TestGradCheckConv(t *testing.T) {
	rng := simrand.New(5)
	conv := NewConv2D(rng, 1, 6, 6, 2, 3, 3, 1, 1, 0, 0)
	net := NewNetwork(3, conv, NewDense(rng, 2*4*4, 3))
	numericalGradCheck(t, net, randomSample(6, 1, 6, 6, 3), 1e-4)
}

func TestGradCheckConvPoolReLU(t *testing.T) {
	rng := simrand.New(7)
	conv := NewConv2D(rng, 2, 8, 8, 3, 3, 3, 1, 1, 1, 1) // padded -> 3×8×8
	pool := NewMaxPool2D(3, 8, 8, 2, 2, 2, 2)            // -> 3×4×4
	net := NewNetwork(2, conv, NewReLU(), pool, NewDense(rng, 3*4*4, 2))
	numericalGradCheck(t, net, randomSample(8, 2, 8, 8, 2), 1e-4)
}

func TestGradCheckStridedConv(t *testing.T) {
	rng := simrand.New(9)
	conv := NewConv2D(rng, 1, 7, 7, 2, 3, 3, 2, 2, 0, 0) // -> 2×3×3
	net := NewNetwork(2, conv, NewDense(rng, 2*3*3, 2))
	numericalGradCheck(t, net, randomSample(10, 1, 7, 7, 2), 1e-4)
}

func TestSoftmaxProperties(t *testing.T) {
	logits := tensor.FromSlice([]float64{1000, 1001, 999}, 3)
	p := Softmax(logits)
	sum := 0.0
	for _, v := range p {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("invalid probability %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("softmax sums to %v", sum)
	}
	if p[1] <= p[0] || p[0] <= p[2] {
		t.Fatalf("softmax ordering broken: %v", p)
	}
}

func TestParamVectorRoundTrip(t *testing.T) {
	rng := simrand.New(11)
	net := ArchTinyMNIST.Build(rng)
	v := net.ParamVector()
	if len(v) != net.ParamCount() {
		t.Fatalf("ParamVector len %d, want %d", len(v), net.ParamCount())
	}
	mod := make([]float64, len(v))
	for i := range mod {
		mod[i] = float64(i%13) * 0.01
	}
	net.SetParams(mod)
	got := net.ParamVector()
	for i := range mod {
		if got[i] != mod[i] {
			t.Fatal("SetParams/ParamVector round trip failed")
		}
	}
}

func TestApplyGradientIsSGDStep(t *testing.T) {
	rng := simrand.New(12)
	net := NewNetwork(2, NewDense(rng, 3, 2))
	before := net.ParamVector()
	grad := make([]float64, len(before))
	for i := range grad {
		grad[i] = 1
	}
	net.ApplyGradient(grad, 0.5)
	after := net.ParamVector()
	for i := range after {
		if math.Abs(after[i]-(before[i]-0.5)) > 1e-12 {
			t.Fatalf("param %d: %v -> %v, want -0.5 step", i, before[i], after[i])
		}
	}
}

// TestApplyGradientAtMatchesDense: applying a gradient at the coordinates
// where it is nonzero gives the same bits as applying it everywhere — across
// layer boundaries, with the first and last parameter on the list, and with
// negative zeros and a NaN among the parameters — and the step it records is
// exactly the listed coordinates whose bits changed, with their new values:
// not the writes too small to move a parameter's bits, nor a NaN that keeps
// its bits.
func TestApplyGradientAtMatchesDense(t *testing.T) {
	build := func() *Network {
		net := ArchTinyMNIST.Build(simrand.New(3))
		p := net.ParamVector()
		p[5], p[6], p[7] = math.Copysign(0, -1), math.NaN(), 0
		net.SetParams(p)
		return net
	}
	dense, sparse := build(), build()
	n := dense.ParamCount()
	rng := simrand.New(4)
	for round := 0; round < 20; round++ {
		grad := make([]float64, n)
		picked := map[int32]bool{0: true, int32(n - 1): true, int32(5 + round%3): true}
		for k := 0; k < 40; k++ {
			picked[int32(rng.Intn(n))] = true
		}
		var idx []int32
		for i := int32(0); int(i) < n; i++ {
			if picked[i] {
				idx = append(idx, i)
				grad[i] = rng.NormFloat64()
				if len(idx)%3 == 0 {
					grad[i] *= 1e-30 // below half an ulp of every nonzero parameter
				}
			}
		}
		dense.ApplyGradient(grad, 0.1)
		before := sparse.ParamVector()
		stepIdx, stepVals := sparse.ApplyGradientAt(idx, grad, 0.1, nil, nil)
		after := sparse.ParamVector()
		var wantIdx []int32
		var wantVals []float64
		for _, i := range idx {
			if math.Float64bits(after[i]) != math.Float64bits(before[i]) {
				wantIdx, wantVals = append(wantIdx, i), append(wantVals, after[i])
			}
		}
		if len(wantIdx) == len(idx) {
			t.Fatalf("round %d: every write moved its parameter", round)
		}
		if !slices.Equal(stepIdx, wantIdx) || len(stepVals) != len(wantVals) {
			t.Fatalf("round %d: recorded step at %v, want %v", round, stepIdx, wantIdx)
		}
		for k := range wantVals {
			if math.Float64bits(stepVals[k]) != math.Float64bits(wantVals[k]) {
				t.Fatalf("round %d: recorded %v at %d, want %v", round, stepVals[k], stepIdx[k], wantVals[k])
			}
		}
	}
	want, got := dense.ParamVector(), sparse.ParamVector()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("param %d: sparse apply %v, dense apply %v", i, got[i], want[i])
		}
	}
}

func TestSameSeedSameNetwork(t *testing.T) {
	a := ArchTinyMNIST.Build(simrand.New(42))
	b := ArchTinyMNIST.Build(simrand.New(42))
	av, bv := a.ParamVector(), b.ParamVector()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatal("same seed must build identical networks")
		}
	}
}

func TestTable1Architectures(t *testing.T) {
	// Verifies the Table-1 CNNs build, accept their declared input shapes,
	// and emit the right number of classes.
	cases := []struct {
		arch Arch
	}{{ArchMNIST}, {ArchEMNIST}, {ArchCIFAR100}, {ArchTinyMNIST}, {ArchSoftmaxMNIST}, {ArchTinyCIFAR}}
	for _, c := range cases {
		t.Run(c.arch.String(), func(t *testing.T) {
			rng := simrand.New(13)
			net := c.arch.Build(rng)
			ch, h, w := c.arch.InputShape()
			x := tensor.New(ch, h, w)
			out := net.Forward(x)
			if out.Len() != c.arch.Classes() {
				t.Fatalf("output size %d, want %d classes", out.Len(), c.arch.Classes())
			}
			if net.ParamCount() == 0 {
				t.Fatal("no parameters")
			}
		})
	}
}

func TestTable1MNISTParamStructure(t *testing.T) {
	// Spot-check the Table-1 MNIST layer geometry: conv1 5×5×8 on 1 channel.
	rng := simrand.New(14)
	net := ArchMNIST.Build(rng)
	conv1, ok := net.Layers[0].(*Conv2D)
	if !ok {
		t.Fatal("layer 0 is not Conv2D")
	}
	if conv1.OutC != 8 || conv1.KH != 5 || conv1.KW != 5 {
		t.Fatalf("conv1 geometry %d/%dx%d, want 8/5x5", conv1.OutC, conv1.KH, conv1.KW)
	}
	if conv1.outH != 24 || conv1.outW != 24 {
		t.Fatalf("conv1 out shape %dx%d, want 24x24", conv1.outH, conv1.outW)
	}
}

func TestTrainingReducesLossAndLearns(t *testing.T) {
	// Two well-separated Gaussian classes must be learnable by softmax
	// regression within a few hundred steps.
	rng := simrand.New(15)
	net := NewNetwork(2, NewDense(rng, 4, 2))
	var train []Sample
	for i := 0; i < 200; i++ {
		label := i % 2
		x := tensor.New(1, 2, 2)
		for j := range x.Data() {
			center := -1.0
			if label == 1 {
				center = 1.0
			}
			x.Data()[j] = center + rng.NormFloat64()*0.3
		}
		train = append(train, Sample{X: x, Label: label})
	}
	_, initialLoss := net.Gradient(train)
	for step := 0; step < 100; step++ {
		grad, _ := net.Gradient(train)
		net.ApplyGradient(grad, 0.5)
	}
	_, finalLoss := net.Gradient(train)
	if finalLoss >= initialLoss {
		t.Fatalf("loss did not decrease: %v -> %v", initialLoss, finalLoss)
	}
	if acc := net.Accuracy(train); acc < 0.95 {
		t.Fatalf("accuracy %v, want >= 0.95", acc)
	}
}

func TestClassAccuracy(t *testing.T) {
	rng := simrand.New(16)
	net := NewNetwork(2, NewDense(rng, 2, 2))
	// Force deterministic predictions: weights so that class = argmax(x).
	net.SetParams([]float64{1, 0, 0, 1, 0, 0})
	samples := []Sample{
		{X: tensor.FromSlice([]float64{1, 0}, 1, 1, 2), Label: 0},
		{X: tensor.FromSlice([]float64{0, 1}, 1, 1, 2), Label: 1},
		{X: tensor.FromSlice([]float64{0, 1}, 1, 1, 2), Label: 0}, // wrong
	}
	if got := net.ClassAccuracy(samples, 0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("class-0 accuracy %v, want 0.5", got)
	}
	if got := net.ClassAccuracy(samples, 1); got != 1 {
		t.Errorf("class-1 accuracy %v, want 1", got)
	}
	if got := net.ClassAccuracy(samples, 7); got != 0 {
		t.Errorf("absent class accuracy %v, want 0", got)
	}
}

func TestGradientPanicsOnEmptyBatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net := NewNetwork(2, NewDense(simrand.New(1), 2, 2))
	net.Gradient(nil)
}

func TestMaxPoolForwardKnown(t *testing.T) {
	pool := NewMaxPool2D(1, 4, 4, 2, 2, 2, 2)
	x := tensor.FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	out := pool.Forward(x)
	want := []float64{6, 8, 14, 16}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("pool out = %v, want %v", out.Data(), want)
		}
	}
}

func TestMaxPoolBackwardRoutesToArgmax(t *testing.T) {
	pool := NewMaxPool2D(1, 2, 2, 2, 2, 2, 2)
	x := tensor.FromSlice([]float64{1, 9, 2, 3}, 1, 2, 2)
	pool.Forward(x)
	g := pool.Backward(tensor.FromSlice([]float64{5}, 1, 1, 1))
	want := []float64{0, 5, 0, 0}
	for i, v := range g.Data() {
		if v != want[i] {
			t.Fatalf("pool grad = %v, want %v", g.Data(), want)
		}
	}
}
