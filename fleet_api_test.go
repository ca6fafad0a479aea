package fleet_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fleet"
	"fleet/internal/data"
	"fleet/internal/nn"
	"fleet/internal/protocol"
	"fleet/internal/simrand"
)

// TestPublicAPIRoundTrip exercises the documented public surface end to
// end: server construction, worker construction, the protocol round trip,
// and evaluation — the quickstart example as a test.
func TestPublicAPIRoundTrip(t *testing.T) {
	srv, err := fleet.NewServer(fleet.ServerConfig{
		Arch:             nn.ArchSoftmaxMNIST,
		Algorithm:        fleet.NewAdaSGD(fleet.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 10}),
		LearningRate:     0.3,
		DefaultBatchSize: 16,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}

	ds := fleet.TinyMNIST(2, 24, 8)
	parts := fleet.PartitionNonIID(simrand.New(3), ds.Train, 6, 2)
	catalogue := fleet.DeviceCatalogue()

	var workers []*fleet.Worker
	for i, local := range parts {
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			ID:     i,
			Arch:   nn.ArchSoftmaxMNIST,
			Local:  local,
			Device: fleet.NewDevice(catalogue[i], simrand.New(int64(10+i))),
			Rng:    simrand.New(int64(20 + i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}

	ctx := context.Background()
	eval := nn.ArchSoftmaxMNIST.Build(simrand.New(4))
	before := srv.Evaluate(eval, ds.Test)
	for round := 0; round < 25; round++ {
		for _, w := range workers {
			if _, err := w.Step(ctx, srv); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := srv.Evaluate(eval, ds.Test)
	if after <= before || after < 0.4 {
		t.Fatalf("public-API training did not learn: %v -> %v", before, after)
	}

	stats, err := srv.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.GradientsIn != 6*25 {
		t.Fatalf("stats.GradientsIn = %d, want %d", stats.GradientsIn, 6*25)
	}
}

// TestPublicAPIInterceptorChain trains a worker through a Chain of the
// exported interceptors around an in-process server — the Service
// abstraction the facade documents — and checks a custom AroundService
// counter saw every call and the rate limiter produces typed APIErrors.
func TestPublicAPIInterceptorChain(t *testing.T) {
	ctx := context.Background()
	srv, err := fleet.NewServer(fleet.ServerConfig{
		Arch:             nn.ArchSoftmaxMNIST,
		Algorithm:        fleet.NewAdaSGD(fleet.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 5}),
		LearningRate:     0.3,
		DefaultBatchSize: 8,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]int{} // one worker, so one caller at a time
	counter := fleet.AroundService(func(ctx context.Context, info fleet.ServiceCallInfo, next func(context.Context) (interface{}, error)) (interface{}, error) {
		calls[info.Method]++
		return next(ctx)
	})
	svc := fleet.Chain(srv, fleet.Recovery(), counter)

	ds := fleet.TinyMNIST(2, 12, 4)
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		ID: 1, Arch: nn.ArchSoftmaxMNIST, Local: ds.Train, Rng: simrand.New(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := w.Step(ctx, svc); err != nil {
			t.Fatal(err)
		}
	}
	if calls["RequestTask"] != 4 || calls["PushGradient"] != 4 {
		t.Fatalf("calls counted = %v", calls)
	}

	// A strict rate limit turns the next call into a typed APIError. One
	// Step spends two calls (task + push), so a burst of 2 covers exactly
	// one full round.
	limited := fleet.Chain(svc, fleet.RateLimit(0.0001, 2))
	if _, err := w.Step(ctx, limited); err != nil {
		t.Fatalf("burst call must pass: %v", err)
	}
	_, err = w.Step(ctx, limited)
	var apiErr *fleet.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *fleet.APIError, got %v", err)
	}
}

func TestPublicAPISimulation(t *testing.T) {
	ds := fleet.TinyMNIST(5, 24, 8)
	users := data.PartitionIID(simrand.New(6), ds.Train, 8)
	res := fleet.RunAsync(fleet.AsyncConfig{
		Arch:         nn.ArchSoftmaxMNIST,
		Algorithm:    fleet.DynSGD{},
		LearningRate: 0.3,
		BatchSize:    16,
		Steps:        120,
		EvalEvery:    60,
		Staleness:    fleet.GaussianStaleness(6, 2),
		Seed:         7,
	}, users, ds.Test)
	if res.FinalAccuracy < 0.3 {
		t.Fatalf("simulation accuracy %v", res.FinalAccuracy)
	}
	if res.TasksExecuted != 120 {
		t.Fatalf("tasks %d", res.TasksExecuted)
	}
}

// TestPublicAPIDP reaches the dp stage the way the facade offers it — a
// BuildPipeline spec — and checks it perturbs the update, replays under the
// same seed, and is visible in the stats.
func TestPublicAPIDP(t *testing.T) {
	ctx := context.Background()
	train := func(stages string, seed int64) ([]float64, *protocol.Stats) {
		algo := fleet.SSGD{}
		pipe, err := fleet.BuildPipeline(stages, "mean", fleet.PipelineOptions{Algorithm: algo, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := fleet.NewServer(fleet.ServerConfig{
			Arch: nn.ArchSoftmaxMNIST, Algorithm: algo, LearningRate: 0.1, Pipeline: pipe, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		params, _ := srv.Model()
		grad := make([]float64, len(params))
		grad[0] = 1
		if _, err := srv.PushGradient(ctx, &protocol.GradientPush{Gradient: grad, BatchSize: 5, LabelCounts: []int{1}}); err != nil {
			t.Fatal(err)
		}
		stats, err := srv.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		params, _ = srv.Model()
		return params, stats
	}
	plain, _ := train("staleness", 7)
	noisy, stats := train("staleness,dp(1,0.5)", 7)
	replay, _ := train("staleness,dp(1,0.5)", 7)
	if !reflect.DeepEqual(noisy, replay) {
		t.Fatal("the dp stage does not replay under the same seed")
	}
	if reflect.DeepEqual(plain, noisy) {
		t.Fatal("the dp stage left the update unperturbed")
	}
	if got := strings.Join(stats.PipelineStages, ","); !strings.Contains(got, "dp(") {
		t.Fatalf("pipeline stages %q do not show the dp stage", got)
	}
}

func TestPublicAPIDeviceCatalogue(t *testing.T) {
	if len(fleet.DeviceCatalogue()) < 20 {
		t.Fatal("catalogue too small")
	}
	m, err := fleet.DeviceByName("Galaxy S7")
	if err != nil {
		t.Fatal(err)
	}
	d := fleet.NewDevice(m, simrand.New(1))
	res := d.Execute(100)
	if res.LatencySec <= 0 || res.EnergyPct <= 0 {
		t.Fatal("device execution produced no cost")
	}
}

// TestPublicAPIPipeline drives the facade's pipeline surface: spec
// specs, a Krum server, and the stats exposure.
func TestPublicAPIPipeline(t *testing.T) {
	ctx := context.Background()
	algo := fleet.NewAdaSGD(fleet.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 5})
	pipe, err := fleet.BuildPipeline("staleness,norm-filter(1e6)", "krum(1)",
		fleet.PipelineOptions{Algorithm: algo, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fleet.NewServer(fleet.ServerConfig{
		Arch:         nn.ArchSoftmaxMNIST,
		Algorithm:    algo,
		LearningRate: 0.05,
		K:            3,
		Pipeline:     pipe,
	})
	if err != nil {
		t.Fatal(err)
	}
	params, _ := srv.Model()
	grad := make([]float64, len(params))
	grad[0] = 1
	for i := 0; i < 3; i++ {
		if _, err := srv.PushGradient(ctx, &protocol.GradientPush{
			ModelVersion: 0, Gradient: grad, BatchSize: 5, LabelCounts: []int{1, 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := srv.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ModelVersion != 1 || stats.Aggregator != "Krum(f=1)" {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestPublicAPIAdmission exercises the exported admission surface: policy
// constructors, chain composition, spec building, the ServerConfig wiring
// and per-policy reject stats.
func TestPublicAPIAdmission(t *testing.T) {
	ctx := context.Background()

	// Spec-built chains share the -admission flag grammar.
	if _, err := fleet.BuildAdmission("min-batch(5),similarity(0.9),per-worker-quota(100,60)",
		fleet.AdmissionOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.BuildAdmission("no-such-policy", fleet.AdmissionOptions{}); err == nil {
		t.Fatal("unknown policy must error")
	}

	srv, err := fleet.NewServer(fleet.ServerConfig{
		Arch:         nn.ArchSoftmaxMNIST,
		Algorithm:    fleet.SSGD{},
		LearningRate: 0.1,
		Admission: fleet.NewAdmissionChain(
			fleet.MinBatchPolicy(200), // default batch 100: reject everything
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.RequestTask(ctx, &protocol.TaskRequest{WorkerID: 1, LabelCounts: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted {
		t.Fatal("min-batch(200) must reject the 100 default")
	}
	stats, err := srv.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TasksDropped != 1 || stats.RejectsByPolicy["min-batch(200)"] != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestPublicAPILoadHarness(t *testing.T) {
	sc, err := fleet.LoadScenarioByName("uniform")
	if err != nil {
		t.Fatal(err)
	}
	sc.Name = "api-tiny"
	sc.Workers, sc.Rounds = 4, 3
	res, err := fleet.RunLoadScenario(context.Background(), sc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Pushes != 12 || res.Counts.ProtocolErrors != 0 {
		t.Fatalf("counts = %+v", res.Counts)
	}
}

// TestPublicAPICrashSafety exercises the facade's one way to a durable
// server: a NodeSpec with a checkpoint policy. It kills a live root
// abruptly, rebuilds it from the same Spec with Recover "latest", and
// watches a worker resync through the incarnation conflict.
func TestPublicAPICrashSafety(t *testing.T) {
	ctx := context.Background()
	spec := fleet.NodeSpec{
		Role:             fleet.NodeRoot,
		LearningRate:     0.3,
		NonStragglerPct:  99.7,
		K:                1,
		DefaultBatchSize: 8,
		Stages:           "staleness",
		Aggregator:       "mean",
		Checkpoint:       fleet.NodeCheckpointSpec{Dir: t.TempDir(), Every: 1, Recover: "fresh"},
		Bind:             fleet.NodeBindSpec{Transport: "http", Addr: "127.0.0.1:0", Drain: time.Second},
		Logf:             func(string, ...interface{}) {},
	}
	start := func(spec fleet.NodeSpec) (*fleet.NodeRuntime, *fleet.Client) {
		rt, err := fleet.NewNode(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(ctx); err != nil {
			t.Fatal(err)
		}
		return rt, &fleet.Client{BaseURL: "http://" + rt.Addr().String()}
	}
	rt, client := start(spec)
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		ID: 1, Arch: fleet.ArchTinyMNIST, Local: fleet.TinyMNIST(2, 12, 4).Train, Rng: simrand.New(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Step(ctx, client); err != nil {
			t.Fatal(err)
		}
	}
	// In-flight round at the crash: the periodic checkpoints are what
	// survives a kill.
	resp, err := w.Pull(ctx, client)
	if err != nil || !resp.Accepted {
		t.Fatalf("pull: %v", err)
	}
	prep := w.Compute(resp)
	if err := rt.Kill(); err != nil {
		t.Fatal(err)
	}

	spec.Checkpoint.Recover = "latest"
	restored, client := start(spec)
	defer restored.Shutdown(ctx)
	if _, err := w.Push(ctx, client, prep.Push); err == nil {
		t.Fatal("stale-incarnation push accepted")
	} else {
		var apiErr *fleet.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("untyped error: %v", err)
		}
	}
	if w.Resyncs != 1 {
		t.Fatalf("resyncs = %d", w.Resyncs)
	}
	if _, err := w.Step(ctx, client); err != nil {
		t.Fatalf("post-restore step: %v", err)
	}

	// Recover "latest" refuses an empty directory instead of booting fresh.
	spec.Checkpoint.Dir = t.TempDir()
	if _, err := fleet.NewNode(spec); err == nil {
		t.Fatal("recover=latest booted from an empty directory")
	}
}

// TestPublicAPINodeRuntime compiles a declarative NodeSpec into a serving
// runtime and drives the canonical lifecycle through the facade — the
// same path the fleet-server flags translate onto.
func TestPublicAPINodeRuntime(t *testing.T) {
	ctx := context.Background()
	rt, err := fleet.NewNode(fleet.NodeSpec{
		Role:            fleet.NodeRoot,
		LearningRate:    0.1,
		NonStragglerPct: 99.7,
		K:               1,
		Stages:          "staleness",
		Aggregator:      "mean",
		Checkpoint:      fleet.NodeCheckpointSpec{Dir: t.TempDir(), Every: 1, Recover: "fresh"},
		Bind:            fleet.NodeBindSpec{Transport: "http", Addr: "127.0.0.1:0", Drain: time.Second},
		Logf:            func(string, ...interface{}) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if rt.Addr() == nil {
		t.Fatal("no bound address after Start")
	}
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		ID: 1, Arch: fleet.ArchTinyMNIST,
		Local: fleet.TinyMNIST(2, 12, 4).Train, Rng: simrand.New(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := &fleet.Client{BaseURL: "http://" + rt.Addr().String()}
	if _, err := w.Step(ctx, svc); err != nil {
		t.Fatalf("step against the runtime's listener: %v", err)
	}
	if code := rt.Shutdown(ctx); code != 0 {
		t.Fatalf("Shutdown = %d, want 0", code)
	}
	if got := rt.State(); got.String() != "closed" {
		t.Fatalf("state after Shutdown = %s, want closed", got)
	}
}

// countingStage and sumWindow are a custom Stage and WindowAggregator
// written against the facade's names alone, as an importer outside the
// module writes them.
type countingStage struct{ sparse, dense atomic.Int64 }

func (s *countingStage) Name() string { return "count" }

func (s *countingStage) Process(g *fleet.Gradient) error {
	if g.Indices != nil {
		s.sparse.Add(1)
	} else {
		s.dense.Add(1)
	}
	return nil
}

type sumWindow struct {
	mu           sync.Mutex
	sum          []float64
	adds, drains int
}

func (w *sumWindow) Name() string { return "sum" }

func (w *sumWindow) Add(g *fleet.Gradient) {
	g.Densify()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sum == nil {
		w.sum = make([]float64, len(g.Vec))
	}
	for i, v := range g.Vec {
		w.sum[i] += float64(g.Scale * v)
	}
	w.adds++
}

func (w *sumWindow) Drain(apply func(direction []float64, touched []int32)) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.adds == 0 {
		return nil
	}
	apply(w.sum, nil)
	clear(w.sum)
	w.adds = 0
	w.drains++
	return nil
}

// TestPublicAPICustomPipeline composes a custom stage and aggregator with
// fleet.NewPipeline and serves one top-k and one dense push through them:
// the stage sees the first sparse and the second dense, and the K=2 window
// drains once into the model.
func TestPublicAPICustomPipeline(t *testing.T) {
	stage, win := &countingStage{}, &sumWindow{}
	pipe, err := fleet.NewPipeline(win, stage)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fleet.NewServer(fleet.ServerConfig{
		Arch: fleet.ArchTinyMNIST, Algorithm: fleet.SSGD{}, LearningRate: 0.1, K: 2, Pipeline: pipe, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := fleet.TinyMNIST(2, 8, 2)
	ctx := context.Background()
	for i, compress := range []string{"topk(16)", ""} {
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			ID:       i,
			Arch:     fleet.ArchTinyMNIST,
			Local:    ds.Train,
			Device:   fleet.NewDevice(fleet.DeviceCatalogue()[i], rand.New(rand.NewSource(int64(i)))),
			Rng:      rand.New(rand.NewSource(int64(10 + i))),
			Compress: compress,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Step(ctx, srv); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := srv.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.GradientsIn != 2 || stats.ModelVersion != 1 || stats.Aggregator != "sum" || !reflect.DeepEqual(stats.PipelineStages, []string{"count"}) {
		t.Fatalf("stats: %d gradients, version %d, aggregator %q, stages %v", stats.GradientsIn, stats.ModelVersion, stats.Aggregator, stats.PipelineStages)
	}
	if stage.sparse.Load() != 1 || stage.dense.Load() != 1 || win.drains != 1 {
		t.Fatalf("stage saw %d sparse and %d dense gradients, window drained %d times; want 1, 1, 1",
			stage.sparse.Load(), stage.dense.Load(), win.drains)
	}
}
