package core

import (
	"math"
	"math/rand"
	"testing"

	"fleet/internal/data"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/pipeline"
	"fleet/internal/sched"
	"fleet/internal/server"
	"fleet/internal/simrand"
)

// fixtures builds a small non-IID population for fast tests.
func fixtures(t *testing.T) (users [][]nn.Sample, test []nn.Sample) {
	t.Helper()
	ds := data.TinyMNIST(1, 24, 8)
	rng := simrand.New(2)
	return data.PartitionNonIID(rng, ds.Train, 10, 2), ds.Test
}

func baseConfig(alg learning.Algorithm) AsyncConfig {
	return AsyncConfig{
		Arch:         nn.ArchSoftmaxMNIST,
		Algorithm:    alg,
		LearningRate: 0.3,
		BatchSize:    16,
		Steps:        150,
		EvalEvery:    50,
		Seed:         3,
	}
}

func TestRunAsyncSSGDLearns(t *testing.T) {
	users, test := fixtures(t)
	res := RunAsync(baseConfig(learning.SSGD{}), users, test)
	if res.FinalAccuracy < 0.4 {
		t.Fatalf("SSGD final accuracy %v, want >= 0.4 (chance 0.1)", res.FinalAccuracy)
	}
	if res.TasksExecuted != 150 {
		t.Fatalf("executed %d tasks, want 150", res.TasksExecuted)
	}
	if len(res.Accuracy.Y) != 3 {
		t.Fatalf("expected 3 eval points, got %d", len(res.Accuracy.Y))
	}
}

func TestRunAsyncDeterministic(t *testing.T) {
	users, test := fixtures(t)
	a := RunAsync(baseConfig(learning.SSGD{}), users, test)
	b := RunAsync(baseConfig(learning.SSGD{}), users, test)
	if a.FinalAccuracy != b.FinalAccuracy {
		t.Fatalf("same seed, different results: %v vs %v", a.FinalAccuracy, b.FinalAccuracy)
	}
}

func TestStalenessHurtsFedAvg(t *testing.T) {
	// The Figure-8 ordering at miniature scale: with significant staleness,
	// a staleness-aware algorithm must beat staleness-unaware FedAvg.
	users, test := fixtures(t)

	cfgFed := baseConfig(learning.FedAvg{})
	cfgFed.Staleness = GaussianStaleness(12, 4)
	cfgFed.Steps = 300
	fed := RunAsync(cfgFed, users, test)

	cfgAda := baseConfig(learning.NewAdaSGD(learning.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 20}))
	cfgAda.Staleness = GaussianStaleness(12, 4)
	cfgAda.Steps = 300
	ada := RunAsync(cfgAda, users, test)

	if ada.FinalAccuracy <= fed.FinalAccuracy {
		t.Fatalf("AdaSGD (%v) must beat FedAvg (%v) under staleness",
			ada.FinalAccuracy, fed.FinalAccuracy)
	}
}

func TestGaussianStalenessClampsAtZero(t *testing.T) {
	rng := simrand.New(4)
	s := GaussianStaleness(0, 3)
	for i := 0; i < 1000; i++ {
		if v := s(rng, 0, nil); v < 0 {
			t.Fatal("negative staleness")
		}
	}
}

func TestStalenessRecorded(t *testing.T) {
	users, test := fixtures(t)
	cfg := baseConfig(learning.DynSGD{})
	cfg.Staleness = GaussianStaleness(6, 2)
	res := RunAsync(cfg, users, test)
	if len(res.Staleness) != res.TasksExecuted {
		t.Fatal("one staleness record per executed task expected")
	}
	nonZero := 0
	for _, tau := range res.Staleness {
		if tau > 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("Gaussian(6,2) staleness should be mostly positive")
	}
	// Scales must reflect DynSGD's inverse dampening.
	for i, sc := range res.Scales {
		want := learning.InverseDampening(res.Staleness[i])
		if math.Abs(sc-want) > 1e-12 {
			t.Fatalf("scale[%d] = %v, want %v", i, sc, want)
		}
	}
}

func TestTrackClasses(t *testing.T) {
	users, test := fixtures(t)
	cfg := baseConfig(learning.SSGD{})
	cfg.TrackClasses = []int{0, 3}
	res := RunAsync(cfg, users, test)
	for _, c := range []int{0, 3} {
		s, ok := res.ClassAccuracy[c]
		if !ok || len(s.Y) == 0 {
			t.Fatalf("class %d accuracy not tracked", c)
		}
	}
}

func TestKAggregation(t *testing.T) {
	users, test := fixtures(t)
	cfg := baseConfig(learning.SSGD{})
	cfg.K = 5
	res := RunAsync(cfg, users, test)
	// K gradients per update: tasks = K × steps.
	if res.TasksExecuted != cfg.Steps*5 {
		t.Fatalf("executed %d tasks, want %d", res.TasksExecuted, cfg.Steps*5)
	}
	if res.FinalAccuracy < 0.4 {
		t.Fatalf("K-aggregated accuracy %v too low", res.FinalAccuracy)
	}
}

func TestDPNoiseSlowsButLearns(t *testing.T) {
	users, test := fixtures(t)

	clean := RunAsync(baseConfig(learning.SSGD{}), users, test)

	cfg := baseConfig(learning.SSGD{})
	var err error
	cfg.Pipeline, err = pipeline.Build("dp(1,0.5),staleness", "mean",
		pipeline.BuildOptions{Algorithm: cfg.Algorithm, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	noisy := RunAsync(cfg, users, test)

	if noisy.FinalAccuracy > clean.FinalAccuracy+0.05 {
		t.Fatalf("DP run (%v) should not beat clean run (%v)", noisy.FinalAccuracy, clean.FinalAccuracy)
	}
	if noisy.FinalAccuracy < 0.2 {
		t.Fatalf("DP run accuracy %v collapsed", noisy.FinalAccuracy)
	}
}

func TestControllerPrunesSmallBatches(t *testing.T) {
	users, test := fixtures(t)
	cfg := baseConfig(learning.SSGD{})
	cfg.Controller = &sched.Controller{SizePercentile: 40, MinHistory: 10}
	cfg.BatchSizeSampler = func(rng *rand.Rand) int {
		return int(rng.NormFloat64()*8 + 16)
	}
	res := RunAsync(cfg, users, test)
	if res.TasksRejected == 0 {
		t.Fatal("size threshold should reject some tasks")
	}
	if res.TasksExecuted != cfg.Steps {
		t.Fatalf("executed %d, want %d (rejected tasks don't count)", res.TasksExecuted, cfg.Steps)
	}
}

func TestSyncMixedWeakWorkersHurt(t *testing.T) {
	// Figure 3 at miniature scale: adding batch-1 workers to strong
	// batch-64 workers must not improve final accuracy.
	ds := data.TinyMNIST(5, 30, 8)
	strongOnly := RunSyncMixed(SyncMixedConfig{
		Arch: nn.ArchSoftmaxMNIST, StrongWorkers: 5, WeakWorkers: 0,
		StrongBatch: 64, WeakBatch: 1, LearningRate: 0.5, Steps: 60, EvalEvery: 30, Seed: 6,
	}, ds.Train, ds.Test)
	withWeak := RunSyncMixed(SyncMixedConfig{
		Arch: nn.ArchSoftmaxMNIST, StrongWorkers: 5, WeakWorkers: 3,
		StrongBatch: 64, WeakBatch: 1, LearningRate: 0.5, Steps: 60, EvalEvery: 30, Seed: 6,
	}, ds.Train, ds.Test)
	if withWeak.FinalY() > strongOnly.FinalY()+0.05 {
		t.Fatalf("weak workers improved accuracy (%v vs %v)? experiment broken",
			withWeak.FinalY(), strongOnly.FinalY())
	}
}

func TestRunAsyncPanics(t *testing.T) {
	users, test := fixtures(t)
	cases := []AsyncConfig{
		{Arch: nn.ArchSoftmaxMNIST, LearningRate: 0.1, Steps: 1},                             // nil algorithm
		{Arch: nn.ArchSoftmaxMNIST, Algorithm: learning.SSGD{}, LearningRate: 0, Steps: 1},   // zero lr
		{Arch: nn.ArchSoftmaxMNIST, Algorithm: learning.SSGD{}, LearningRate: 0.1, Steps: 0}, // zero steps
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			RunAsync(cfg, users, test)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty users: expected panic")
			}
		}()
		RunAsync(baseConfig(learning.SSGD{}), nil, test)
	}()
}

func TestGradientTransformHook(t *testing.T) {
	users, _ := fixtures(t)
	d := NewDriver(server.Config{Arch: nn.ArchSoftmaxMNIST, Algorithm: learning.SSGD{}, LearningRate: 0.3, Seed: 3}, 1)
	before, _ := d.srv.Model()
	called := 0
	d.Transform = func(workerID int, grad []float64) []float64 {
		called++
		return make([]float64, len(grad)) // the server must see this, not the gradient
	}
	for i := 0; i < 20; i++ {
		d.Push(i%len(users), 0, users[i%len(users)][:8])
	}
	if called != 20 {
		t.Fatalf("transform called %d times, want 20", called)
	}
	if after, _ := d.srv.Model(); d.Version() != 20 || !sameBits(before, after) {
		t.Fatalf("20 zeroed gradients moved the model (version %d)", d.Version())
	}
}
