package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"fleet/internal/simrand"
)

// vectorHash is the FNV-1a hash of a vector's float64 bits, in order.
func vectorHash(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}

// fixedBatch is three samples of arch's input shape from fixed seeds.
func fixedBatch(a Arch) []Sample {
	c, h, w := a.InputShape()
	return []Sample{
		randomSample(101, c, h, w, a.Classes()),
		randomSample(102, c, h, w, a.Classes()),
		randomSample(103, c, h, w, a.Classes()),
	}
}

// TestArenaKeepsEveryBit pins, for every architecture, the parameters a seed
// builds and the gradient of one fixed batch to hashes captured before the
// layers' tensors moved into one arena (commit 491070b): the arena changes
// where the floats live, never their values, their order in the flat vector,
// or the order they are drawn and summed in.
func TestArenaKeepsEveryBit(t *testing.T) {
	want := map[Arch][2]uint64{
		ArchMNIST:        {0x8bd40496449314ba, 0x2f1985cb114aa459},
		ArchEMNIST:       {0x1588753256320cf3, 0x8f2203cea3b7cdd3},
		ArchCIFAR100:     {0x602a3af6e5b0c3d6, 0x36ec6582186f4a98},
		ArchTinyMNIST:    {0xb606f13ce61582ab, 0x19ee1598988cd83b},
		ArchSoftmaxMNIST: {0xf13479769c33a796, 0x3a0dc35c96cf3815},
		ArchTinyCIFAR:    {0x9b7af024a364bbf0, 0x5c2e3e097ccdf87e},
	}
	for _, a := range All() {
		net := a.Build(simrand.New(1))
		params := vectorHash(net.ParamVector())
		grad, _ := net.Gradient(fixedBatch(a))
		if got := [2]uint64{params, vectorHash(grad)}; got != want[a] {
			t.Errorf("%v: params %#x gradient %#x, want %#x %#x", a, got[0], got[1], want[a][0], want[a][1])
		}
	}
}

// TestLayerTensorsAreArenaViews: a write through a layer's parameter tensor
// is a write to the flat vector at that layer's offset, SetParams is visible
// through the layer, and a layer's gradient tensors are views of what
// Gradient averages.
func TestLayerTensorsAreArenaViews(t *testing.T) {
	net := ArchTinyMNIST.Build(simrand.New(2))
	conv, fc := net.Layers[0].(*Conv2D), net.Layers[3].(*Dense)
	fcW := conv.W.Len() + conv.B.Len() // the dense weights follow the conv's
	conv.B.Data()[1] = 7
	fc.Params()[0].Data()[5] = -3
	if v := net.ParamVector(); v[conv.W.Len()+1] != 7 || v[fcW+5] != -3 {
		t.Fatalf("layer writes not visible in ParamVector: %v %v", v[conv.W.Len()+1], v[fcW+5])
	}
	v := net.ParamVector()
	v[fcW+6] = 11
	net.SetParams(v)
	if got := fc.W.Data()[6]; got != 11 {
		t.Fatalf("SetParams not visible through the layer: %v", got)
	}
	net.ZeroGrads()
	fc.Grads()[1].Data()[0] = 4
	if got := net.grads[fcW+fc.W.Len()]; got != 4 {
		t.Fatalf("gradient write not visible in the arena: %v", got)
	}
}

// TestCopyParamsReusesStorage: CopyParams fills a large-enough buffer in
// place, whatever it held, and allocates otherwise.
func TestCopyParamsReusesStorage(t *testing.T) {
	net := ArchTinyMNIST.Build(simrand.New(3))
	want := net.ParamVector()
	buf := make([]float64, len(want))
	for i := range buf {
		buf[i] = math.NaN()
	}
	got := net.CopyParams(buf)
	if &got[0] != &buf[0] || vectorHash(got) != vectorHash(want) {
		t.Fatal("CopyParams did not fill the caller's buffer with the parameters")
	}
	if fresh := net.CopyParams(nil); vectorHash(fresh) != vectorHash(want) {
		t.Fatal("CopyParams(nil) is not ParamVector")
	}
	if allocs := testing.AllocsPerRun(10, func() { net.CopyParams(buf) }); allocs != 0 {
		t.Fatalf("CopyParams into a model-sized buffer allocates %v times", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = net.ParamCount() }); allocs != 0 {
		t.Fatalf("ParamCount allocates %v times", allocs)
	}
}

var benchSink []float64

// BenchmarkParamVector is a snapshot the garbage collector owns: one
// allocation of the model, not zeroed first.
func BenchmarkParamVector(b *testing.B) {
	for _, a := range []Arch{ArchMNIST, ArchCIFAR100} {
		b.Run(a.String(), func(b *testing.B) {
			net := a.Build(simrand.New(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = net.ParamVector()
			}
		})
	}
}

// BenchmarkCopyParams is a snapshot into a rotating set of buffers, as
// ingest.Core recycles them.
func BenchmarkCopyParams(b *testing.B) {
	for _, a := range []Arch{ArchMNIST, ArchCIFAR100} {
		b.Run(a.String(), func(b *testing.B) {
			net := a.Build(simrand.New(1))
			var ring [6][]float64
			for i := range ring {
				ring[i] = make([]float64, net.ParamCount())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = net.CopyParams(ring[i%len(ring)])
			}
		})
	}
}
