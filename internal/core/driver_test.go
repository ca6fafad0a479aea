package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fleet/internal/data"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/sched"
	"fleet/internal/server"
	"fleet/internal/simrand"
)

// paramsHash is the SHA-256 of a parameter vector's IEEE-754 bits.
func paramsHash(p []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range p {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestDriverReproducesEngine pins the trained model of four runs to the
// hashes internal/core's offline engine (deleted in the PR that added this
// test) produced for them: before its deletion the engine and the driver
// were compared bit for bit on every run of every FL experiment (scales,
// staleness, counts, accuracy series, parameters; CHANGES.md PR 21), and
// these are four of those runs. A changed hash means the serving path's
// arithmetic or order of operations changed: ingest.Core.PushGradient, the
// staleness stage, the mean window, the controller, or the model update.
func TestDriverReproducesEngine(t *testing.T) {
	ada := func() learning.Algorithm {
		return learning.NewAdaSGD(learning.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 30})
	}
	// The CI-scale non-IID MNIST population of internal/experiments.
	population := func(seed int64) ([][]nn.Sample, []nn.Sample) {
		ds := data.TinyMNIST(seed, 40, 10)
		return data.PartitionNonIID(simrand.New(seed), ds.Train, 20, 2), ds.Test
	}
	async := func(seed int64, cfg AsyncConfig) []float64 {
		users, test := population(seed)
		cfg.Arch, cfg.LearningRate, cfg.EvalEvery = nn.ArchTinyMNIST, 0.03, 100
		return RunAsync(cfg, users, test).Params
	}
	for _, run := range []struct {
		name, want string
		params     func() []float64
	}{
		{"fig8 AdaSGD under D1", "920c0838560082c88345f8ae377d0e2e8f83b7c47044413a1ac7594d060b8972", func() []float64 {
			return async(8, AsyncConfig{
				Algorithm: ada(), BatchSize: 20, Steps: 1200, Seed: 42, Staleness: GaussianStaleness(6, 2),
			})
		}},
		{"ablation-k K=5", "7a19082f50c2d868caf16bc247b732bf3cc1502a81952ef4b5383830f9555c79", func() []float64 {
			return async(16, AsyncConfig{
				Algorithm: ada(), BatchSize: 20, Steps: 240, K: 5, Seed: 49, Staleness: GaussianStaleness(6, 2),
			})
		}},
		{"fig15 size threshold 40 (452 of 1200 requests pruned)", "d8bb365a75a1ca665604a48e8d35ca74012003f117d37127305419db08ba295b", func() []float64 {
			return async(151, AsyncConfig{
				Algorithm: learning.SSGD{}, Steps: 1200, RequestBudget: 1200, Seed: 52,
				BatchSizeSampler: func(rng *rand.Rand) int { return max(1, int(rng.NormFloat64()*7+20)) },
				Controller:       &sched.Controller{SizePercentile: 40},
			})
		}},
		{"trace-staleness AdaSGD", "15c19d26cd1abab31d80e20c56192373f4f4046242b680db1026b8e103651a89", func() []float64 {
			users, test := population(17)
			return RunTrace(TraceConfig{
				Arch: nn.ArchTinyMNIST, Algorithm: ada(), LearningRate: 0.03, BatchSize: 20,
				Updates: 800, EvalEvery: 100, NetworkMinSec: 1.1, NetworkMeanSec: 2.4,
				ThinkTimeSec: 4, DropoutProb: 0.05, Seed: 53,
			}, users, test).Params
		}},
	} {
		if got := paramsHash(run.params()); got != run.want {
			t.Errorf("%s: trained parameters hash to %s, the engine's to %s", run.name, got, run.want)
		}
	}
}

// TestDriverPushesAgainstRetainedSnapshots checks the one thing the driver
// decides: which version a gradient is computed on and pushed with.
func TestDriverPushesAgainstRetainedSnapshots(t *testing.T) {
	users, _ := fixtures(t)
	const snapCap = 4
	d := NewDriver(server.Config{
		Arch: nn.ArchSoftmaxMNIST, Algorithm: learning.DynSGD{}, LearningRate: 0.3, Seed: 1,
	}, snapCap)
	var onParams [][]float64 // what the worker network held at each gradient
	d.Transform = func(_ int, grad []float64) []float64 {
		onParams = append(onParams, d.net.ParamVector())
		return grad
	}
	published := [][]float64{d.ring[0]}
	for i, tau := range []int{0, 5, 1, 2, 3, 9, 0} {
		before := d.Version()
		ack := d.Push(i, tau, users[i][:8])
		want := min(tau, before, snapCap-1)
		if ack.Staleness != want || ack.Scale != learning.InverseDampening(want) {
			t.Fatalf("push %d (tau %d at version %d): server saw staleness %d scale %v, want %d",
				i, tau, before, ack.Staleness, ack.Scale, want)
		}
		if !sameBits(onParams[i], published[before-want]) {
			t.Fatalf("push %d: gradient not computed on version %d", i, before-want)
		}
		if d.Version() != before+1 || ack.NewVersion != d.Version() {
			t.Fatalf("push %d: version %d → %d (ack %d), want one step", i, before, d.Version(), ack.NewVersion)
		}
		params, _ := d.srv.Model()
		published = append(published, params)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
