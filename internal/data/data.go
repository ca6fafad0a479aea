// Package data provides deterministic synthetic image datasets standing in
// for MNIST, E-MNIST and CIFAR-100 (which are not available offline), plus
// the partitioning schemes used by the paper: IID splits and the standard
// non-IID decentralization scheme (sort by label, two shards per user).
//
// Each synthetic class is defined by a smooth random prototype pattern;
// samples are noisy renditions of their class prototype, min-max scaled to
// [0, 1] exactly as the paper pre-processes its inputs (§3.2). A small CNN
// can genuinely learn these datasets, which preserves the convergence
// dynamics that the staleness experiments measure.
package data

import (
	"fmt"
	"math/rand"
	"sort"

	"fleet/internal/nn"
	"fleet/internal/simrand"
	"fleet/internal/tensor"
)

// Dataset is a labelled train/test split.
type Dataset struct {
	Name    string
	Classes int
	Train   []nn.Sample
	Test    []nn.Sample
}

// SyntheticConfig parameterizes the synthetic generator.
type SyntheticConfig struct {
	Name          string
	Classes       int
	TrainPerClass int
	TestPerClass  int
	C, H, W       int
	// NoiseStd is the per-pixel Gaussian noise added to the class prototype.
	// Larger values make the problem harder.
	NoiseStd float64
	Seed     int64
}

// Generate builds a synthetic dataset. The same config yields the same data.
func Generate(cfg SyntheticConfig) *Dataset {
	if cfg.Classes <= 0 || cfg.C <= 0 || cfg.H <= 0 || cfg.W <= 0 {
		panic(fmt.Sprintf("data: invalid config %+v", cfg))
	}
	rng := simrand.New(cfg.Seed)
	pixels := cfg.C * cfg.H * cfg.W
	prototypes := make([][]float64, cfg.Classes)
	for k := range prototypes {
		prototypes[k] = smoothPattern(rng, cfg.C, cfg.H, cfg.W)
	}
	gen := func(perClass int) []nn.Sample {
		samples := make([]nn.Sample, 0, perClass*cfg.Classes)
		for k := 0; k < cfg.Classes; k++ {
			for i := 0; i < perClass; i++ {
				raw := make([]float64, pixels)
				for p := range raw {
					raw[p] = prototypes[k][p] + rng.NormFloat64()*cfg.NoiseStd
				}
				minMaxScale(raw)
				samples = append(samples, nn.Sample{
					X:     tensor.FromSlice(raw, cfg.C, cfg.H, cfg.W),
					Label: k,
				})
			}
		}
		shuffleSamples(rng, samples)
		return samples
	}
	return &Dataset{
		Name:    cfg.Name,
		Classes: cfg.Classes,
		Train:   gen(cfg.TrainPerClass),
		Test:    gen(cfg.TestPerClass),
	}
}

// smoothPattern draws a random low-frequency pattern: a sum of a few random
// 2-D cosine bumps per channel. Low-frequency structure is what lets small
// convolutions pick up class identity, mimicking natural-image statistics.
func smoothPattern(rng *rand.Rand, c, h, w int) []float64 {
	out := make([]float64, c*h*w)
	const bumps = 4
	for ch := 0; ch < c; ch++ {
		for b := 0; b < bumps; b++ {
			cy := rng.Float64() * float64(h)
			cx := rng.Float64() * float64(w)
			sy := 1.5 + rng.Float64()*float64(h)/3
			sx := 1.5 + rng.Float64()*float64(w)/3
			amp := rng.Float64()*2 - 1
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					dy := (float64(y) - cy) / sy
					dx := (float64(x) - cx) / sx
					out[ch*h*w+y*w+x] += amp * gaussianBump(dy*dy+dx*dx)
				}
			}
		}
	}
	return out
}

func gaussianBump(r2 float64) float64 {
	// exp(-r²/2) approximated cheaply; exactness does not matter here.
	if r2 > 16 {
		return 0
	}
	// 4th-order Padé-like approximation of exp(-r2/2), monotone on [0,16].
	x := r2 / 2
	return 1 / (1 + x + x*x/2 + x*x*x/6)
}

// minMaxScale rescales a vector to [0, 1] in place (paper §3.2).
func minMaxScale(v []float64) {
	lo, hi := v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == lo {
		for i := range v {
			v[i] = 0
		}
		return
	}
	inv := 1 / (hi - lo)
	for i := range v {
		v[i] = (v[i] - lo) * inv
	}
}

func shuffleSamples(rng *rand.Rand, s []nn.Sample) {
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}

// SyntheticMNIST builds a 10-class 28×28×1 dataset sized by scale (scale 1 ≈
// 600 train / 100 test per class; the real MNIST is 10× larger).
func SyntheticMNIST(seed int64, scale float64) *Dataset {
	return Generate(SyntheticConfig{
		Name:          "synthetic-mnist",
		Classes:       10,
		TrainPerClass: scaled(600, scale),
		TestPerClass:  scaled(100, scale),
		C:             1, H: 28, W: 28,
		NoiseStd: 0.35,
		Seed:     seed,
	})
}

// SyntheticEMNIST builds a 62-class 28×28×1 dataset.
func SyntheticEMNIST(seed int64, scale float64) *Dataset {
	return Generate(SyntheticConfig{
		Name:          "synthetic-emnist",
		Classes:       62,
		TrainPerClass: scaled(180, scale),
		TestPerClass:  scaled(30, scale),
		C:             1, H: 28, W: 28,
		NoiseStd: 0.35,
		Seed:     seed,
	})
}

// SyntheticCIFAR100 builds a 100-class 32×32×3 dataset.
func SyntheticCIFAR100(seed int64, scale float64) *Dataset {
	return Generate(SyntheticConfig{
		Name:          "synthetic-cifar100",
		Classes:       100,
		TrainPerClass: scaled(100, scale),
		TestPerClass:  scaled(20, scale),
		C:             3, H: 32, W: 32,
		NoiseStd: 0.45,
		Seed:     seed,
	})
}

// TinyMNIST builds the fast 14×14 10-class dataset used by CI-speed
// experiment runs and tests.
func TinyMNIST(seed int64, trainPerClass, testPerClass int) *Dataset {
	return Generate(SyntheticConfig{
		Name:          "tiny-mnist",
		Classes:       10,
		TrainPerClass: trainPerClass,
		TestPerClass:  testPerClass,
		C:             1, H: 14, W: 14,
		NoiseStd: 0.3,
		Seed:     seed,
	})
}

// TinyCIFAR builds the fast 16×16×3 10-class dataset used by the Figure-3
// weak/strong worker experiment.
func TinyCIFAR(seed int64, trainPerClass, testPerClass int) *Dataset {
	return Generate(SyntheticConfig{
		Name:          "tiny-cifar",
		Classes:       10,
		TrainPerClass: trainPerClass,
		TestPerClass:  testPerClass,
		C:             3, H: 16, W: 16,
		NoiseStd: 0.4,
		Seed:     seed,
	})
}

func scaled(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 1 {
		n = 1
	}
	return n
}

// PartitionIID splits samples into numUsers random equally sized local
// datasets.
func PartitionIID(rng *rand.Rand, samples []nn.Sample, numUsers int) [][]nn.Sample {
	if numUsers <= 0 {
		panic("data: PartitionIID needs numUsers > 0")
	}
	idx := rng.Perm(len(samples))
	out := make([][]nn.Sample, numUsers)
	for i, id := range idx {
		u := i % numUsers
		out[u] = append(out[u], samples[id])
	}
	return out
}

// PartitionNonIID implements the paper's standard decentralization scheme
// (§3.2, after [52]): sort the data by label, divide into
// shardsPerUser*numUsers shards, and deal shardsPerUser random shards to
// each user. Each user therefore holds examples of only a few labels.
func PartitionNonIID(rng *rand.Rand, samples []nn.Sample, numUsers, shardsPerUser int) [][]nn.Sample {
	if numUsers <= 0 || shardsPerUser <= 0 {
		panic("data: PartitionNonIID needs positive numUsers and shardsPerUser")
	}
	sorted := make([]nn.Sample, len(samples))
	copy(sorted, samples)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Label < sorted[j].Label })

	numShards := numUsers * shardsPerUser
	shardSize := len(sorted) / numShards
	if shardSize == 0 {
		panic(fmt.Sprintf("data: %d samples cannot fill %d shards", len(samples), numShards))
	}
	shardIdx := rng.Perm(numShards)
	out := make([][]nn.Sample, numUsers)
	for u := 0; u < numUsers; u++ {
		for s := 0; s < shardsPerUser; s++ {
			sh := shardIdx[u*shardsPerUser+s]
			out[u] = append(out[u], sorted[sh*shardSize:(sh+1)*shardSize]...)
		}
	}
	return out
}

// SampleBatch draws a mini-batch of size n uniformly from local data:
// without replacement when n <= len(local), with replacement otherwise.
func SampleBatch(rng *rand.Rand, local []nn.Sample, n int) []nn.Sample {
	if len(local) == 0 {
		panic("data: SampleBatch from empty local dataset")
	}
	if n <= 0 {
		panic("data: SampleBatch needs n > 0")
	}
	out := make([]nn.Sample, 0, n)
	if n <= len(local) {
		for _, id := range rng.Perm(len(local))[:n] {
			out = append(out, local[id])
		}
		return out
	}
	for i := 0; i < n; i++ {
		out = append(out, local[rng.Intn(len(local))])
	}
	return out
}

// LabelCounts returns the per-class sample counts of a local dataset.
func LabelCounts(samples []nn.Sample, classes int) []int {
	counts := make([]int, classes)
	for _, s := range samples {
		counts[s.Label]++
	}
	return counts
}
