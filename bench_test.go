// Benchmarks regenerating every table and figure of the FLeet paper at CI
// scale (one benchmark per experiment; run `cmd/fleet-experiments -scale
// full` for paper-sized runs), plus micro-benchmarks of the hot kernels.
//
//	go test -bench=. -benchmem
package fleet_test

import (
	"bytes"
	"strings"
	"testing"

	"fleet/internal/data"
	"fleet/internal/experiments"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/protocol"
	"fleet/internal/simrand"
	"fleet/internal/tensor"
)

// benchExperiment runs one experiment driver per iteration and reports its
// headline metrics.
func benchExperiment(b *testing.B, id string, metricKeys ...string) {
	b.Helper()
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.Run(id, experiments.ScaleCI)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, k := range metricKeys {
		if v, ok := rep.Values[k]; ok {
			// testing.B metric units must not contain whitespace.
			unit := strings.NewReplacer(" ", "_", "(", "", ")", "").Replace(k)
			b.ReportMetric(v, unit)
		}
	}
}

func BenchmarkFig3WeakWorkers(b *testing.B) {
	benchExperiment(b, "fig3", "10 strong", "10 strong + 4 weak")
}

func BenchmarkFig4DeviceLinearity(b *testing.B) {
	benchExperiment(b, "fig4", "Galaxy S7-cool", "Galaxy S7-hot")
}

func BenchmarkFig5Dampening(b *testing.B) {
	benchExperiment(b, "fig5")
}

func BenchmarkFig6OnlineVsStandard(b *testing.B) {
	benchExperiment(b, "fig6", "boost", "online", "standard")
}

func BenchmarkFig7Staleness(b *testing.B) {
	benchExperiment(b, "fig7", "mean", "p99")
}

func BenchmarkFig8Staleness(b *testing.B) {
	benchExperiment(b, "fig8", "ada-D2", "dyn-D2", "fedavg", "speedup-D2")
}

func BenchmarkFig9Similarity(b *testing.B) {
	benchExperiment(b, "fig9", "ada-class0", "dyn-class0")
}

func BenchmarkFig10IID(b *testing.B) {
	benchExperiment(b, "fig10", "ada-tiny-CIFAR (IID)", "dyn-tiny-CIFAR (IID)")
}

func BenchmarkFig11DP(b *testing.B) {
	benchExperiment(b, "fig11", "ada-eps1.75", "dyn-eps1.75")
}

func BenchmarkFig12TimeSLO(b *testing.B) {
	benchExperiment(b, "fig12", "iprof-p90", "maui-p90", "ratio-p90")
}

func BenchmarkFig13EnergySLO(b *testing.B) {
	benchExperiment(b, "fig13", "iprof-p90", "maui-p90", "ratio-p90")
}

func BenchmarkFig14Caloree(b *testing.B) {
	benchExperiment(b, "fig14", "fleet-Galaxy S7", "caloree-Galaxy S7")
}

func BenchmarkFig15Controller(b *testing.B) {
	benchExperiment(b, "fig15", "base", "size40", "sim40")
}

func BenchmarkTable2CaloreeTransfer(b *testing.B) {
	benchExperiment(b, "table2", "Galaxy S7", "Honor 10")
}

func BenchmarkEnergyDaily(b *testing.B) {
	benchExperiment(b, "energy", "mean-mwh", "pct-battery")
}

func BenchmarkAblationDampening(b *testing.B) {
	benchExperiment(b, "ablation-dampening")
}

func BenchmarkAblationSimilarity(b *testing.B) {
	benchExperiment(b, "ablation-similarity", "class0-with", "class0-without")
}

func BenchmarkAblationSPct(b *testing.B) {
	benchExperiment(b, "ablation-spct", "s99.7", "s50.0")
}

func BenchmarkAblationK(b *testing.B) {
	benchExperiment(b, "ablation-k", "k1", "k10")
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the hot kernels.

func BenchmarkGradientMNISTCNN(b *testing.B) {
	rng := simrand.New(1)
	net := nn.ArchMNIST.Build(rng)
	ds := data.SyntheticMNIST(2, 0.02)
	batch := ds.Train[:32]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Gradient(batch)
	}
}

func BenchmarkGradientTinyCNN(b *testing.B) {
	rng := simrand.New(1)
	net := nn.ArchTinyMNIST.Build(rng)
	ds := data.TinyMNIST(2, 10, 1)
	batch := ds.Train[:32]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Gradient(batch)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	m := tensor.New(128, 128)
	for i := range m.Data() {
		m.Data()[i] = float64(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(m, m)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	img := tensor.New(3, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Im2Col(img, 3, 3, 1, 1, 1, 1)
	}
}

func BenchmarkAdaSGDScale(b *testing.B) {
	alg := learning.NewAdaSGD(learning.AdaSGDConfig{NonStragglerPct: 99.7})
	for i := 0; i < 1000; i++ {
		alg.Observe(learning.GradientMeta{Staleness: i % 20})
	}
	meta := learning.GradientMeta{Staleness: 12, Similarity: 0.4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Scale(meta)
	}
}

func BenchmarkBhattacharyya(b *testing.B) {
	p := make([]float64, 100)
	q := make([]float64, 100)
	for i := range p {
		p[i] = float64(i % 10)
		q[i] = float64((i + 3) % 10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		learning.Bhattacharyya(p, q)
	}
}

func BenchmarkProtocolEncodeGradient(b *testing.B) {
	push := protocol.GradientPush{
		Gradient:    make([]float64, 12000),
		LabelCounts: make([]int, 10),
		BatchSize:   100,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := protocol.Default.Encode(&buf, push); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProtocolRoundTrip(b *testing.B) {
	push := protocol.GradientPush{
		Gradient:    make([]float64, 12000),
		LabelCounts: make([]int, 10),
		BatchSize:   100,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := protocol.Default.Encode(&buf, push); err != nil {
			b.Fatal(err)
		}
		var out protocol.GradientPush
		if err := protocol.Default.Decode(&buf, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkByzantine(b *testing.B) {
	benchExperiment(b, "byzantine", "clean-Mean", "attacked-Mean", "attacked-CoordinateMedian")
}

func BenchmarkTraceStaleness(b *testing.B) {
	benchExperiment(b, "trace-staleness", "ada", "dyn", "mean-staleness")
}
