package fleet_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"fleet"
	"fleet/internal/loadgen"
	"fleet/internal/simrand"
)

// TestPublicAPIRoundTrip exercises the documented public surface end to
// end: server construction, worker construction, the protocol round trip,
// and evaluation — the quickstart example as a test.
func TestPublicAPIRoundTrip(t *testing.T) {
	srv, err := fleet.NewServer(fleet.ServerConfig{
		Arch:             fleet.ArchSoftmaxMNIST,
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
			Arch:   fleet.ArchSoftmaxMNIST,
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
	eval := fleet.ArchSoftmaxMNIST.Build(simrand.New(4))
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
// abstraction the facade documents — and checks the metrics sink saw every
// call and the rate limiter produces typed APIErrors.
func TestPublicAPIInterceptorChain(t *testing.T) {
	ctx := context.Background()
	srv, err := fleet.NewServer(fleet.ServerConfig{
		Arch:             fleet.ArchSoftmaxMNIST,
		Algorithm:        fleet.NewAdaSGD(fleet.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 5}),
		LearningRate:     0.3,
		DefaultBatchSize: 8,
		Shards:           4,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	calls := fleet.NewCallMetrics()
	svc := fleet.Chain(srv, fleet.Recovery(), fleet.Metrics(calls))

	ds := fleet.TinyMNIST(2, 12, 4)
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		ID: 1, Arch: fleet.ArchSoftmaxMNIST, Local: ds.Train, Rng: simrand.New(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := w.Step(ctx, svc); err != nil {
			t.Fatal(err)
		}
	}
	snap := calls.Snapshot()
	if snap["RequestTask"].Calls != 4 || snap["PushGradient"].Calls != 4 {
		t.Fatalf("metrics snapshot = %+v", snap)
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
	users := fleet.PartitionIID(simrand.New(6), ds.Train, 8)
	res := fleet.RunAsync(fleet.AsyncConfig{
		Arch:         fleet.ArchSoftmaxMNIST,
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

func TestPublicAPIDP(t *testing.T) {
	eps, err := fleet.DPEpsilon(0.01, 2.0, 100, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if eps <= 0 {
		t.Fatalf("epsilon %v", eps)
	}
	sigma, err := fleet.DPSigmaFor(0.01, eps, 100, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if sigma <= 0 {
		t.Fatalf("sigma %v", sigma)
	}
}

func TestPublicAPIExperimentsRegistry(t *testing.T) {
	ids := fleet.Experiments()
	if len(ids) < 15 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	rep, err := fleet.RunExperiment("fig5", fleet.ScaleCI)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "fig5" || len(rep.Lines) == 0 {
		t.Fatalf("report = %+v", rep)
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

func TestPublicAPIBhattacharyya(t *testing.T) {
	if got := fleet.Bhattacharyya([]float64{1, 1}, []float64{1, 1}); got < 0.999 {
		t.Fatalf("BC = %v", got)
	}
}

// TestPublicAPIPipeline drives the facade's pipeline surface: registry
// specs, direct construction, a Krum server, and the stats exposure.
func TestPublicAPIPipeline(t *testing.T) {
	ctx := context.Background()
	algo := fleet.NewAdaSGD(fleet.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 5})
	pipe, err := fleet.BuildPipeline("staleness,norm-filter(1e6)", "krum(1)",
		fleet.PipelineOptions{Algorithm: algo, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fleet.NewServer(fleet.ServerConfig{
		Arch:         fleet.ArchSoftmaxMNIST,
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
		if _, err := srv.PushGradient(ctx, &fleet.GradientPush{
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

	// Direct construction with the exported stage/aggregator constructors.
	stage, err := fleet.StalenessStage(fleet.DynSGD{})
	if err != nil {
		t.Fatal(err)
	}
	win, err := fleet.RetainedWindow(fleet.MedianAggregator{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.NewPipeline(win, stage); err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.NewPipeline(fleet.MeanWindow(4)); err != nil {
		t.Fatal(err)
	}

	// The spec registries are populated and extensible.
	if len(fleet.PipelineStages()) < 3 || len(fleet.WindowAggregators()) < 4 {
		t.Fatalf("registries: stages=%v aggregators=%v",
			fleet.PipelineStages(), fleet.WindowAggregators())
	}
}

// TestPublicAPIAdmission exercises the exported admission surface: policy
// constructors, chain composition, spec building, the ServerConfig wiring,
// per-policy reject stats, and a version-aware delta pull.
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
	if len(fleet.AdmissionPolicies()) < 5 {
		t.Fatalf("admission registry: %v", fleet.AdmissionPolicies())
	}

	srv, err := fleet.NewServer(fleet.ServerConfig{
		Arch:         fleet.ArchSoftmaxMNIST,
		Algorithm:    fleet.SSGD{},
		LearningRate: 0.1,
		Admission: fleet.NewAdmissionChain(
			fleet.MinBatchPolicy(200), // default batch 100: reject everything
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.RequestTask(ctx, &fleet.TaskRequest{WorkerID: 1, LabelCounts: []int{1}})
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

	// An accepting server serves delta pulls from the snapshot.
	open, err := fleet.NewServer(fleet.ServerConfig{
		Arch:         fleet.ArchSoftmaxMNIST,
		Algorithm:    fleet.SSGD{},
		LearningRate: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := open.RequestTask(ctx, &fleet.TaskRequest{WorkerID: 1, LabelCounts: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	cached := append([]float64(nil), full.Params...)
	if _, err := open.PushGradient(ctx, &fleet.GradientPush{
		ModelVersion: full.ModelVersion, GradientLen: len(cached),
		SparseIndices: []int32{0}, SparseValues: []float64{0.5},
		BatchSize: 1, LabelCounts: []int{1},
	}); err != nil {
		t.Fatal(err)
	}
	delta, err := open.RequestTask(ctx, &fleet.TaskRequest{
		WorkerID: 1, LabelCounts: []int{1}, WantDelta: true, KnownVersion: full.ModelVersion,
	})
	if err != nil {
		t.Fatal(err)
	}
	if delta.ParamsDelta == nil {
		t.Fatalf("delta pull = %+v", delta)
	}
	if err := delta.ParamsDelta.Patch(cached); err != nil {
		t.Fatal(err)
	}
	want, _ := open.Model()
	for i := range want {
		if cached[i] != want[i] {
			t.Fatalf("coord %d: %v != %v", i, cached[i], want[i])
		}
	}
}

func TestPublicAPILoadHarness(t *testing.T) {
	names := fleet.LoadScenarios()
	if len(names) < 5 {
		t.Fatalf("load scenarios = %v", names)
	}
	sc, err := fleet.LoadScenarioByName("uniform")
	if err != nil {
		t.Fatal(err)
	}
	sc.Name = "api-tiny"
	sc.Workers, sc.Rounds = 4, 3
	fleet.RegisterLoadScenario(sc)
	res, err := fleet.RunLoadScenario(context.Background(), "api-tiny", 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Pushes != 12 || res.Counts.ProtocolErrors != 0 {
		t.Fatalf("counts = %+v", res.Counts)
	}
	rep := fleet.CompareBench(res, res, loadgen.CompareOptions{})
	if rep.Failed {
		t.Fatalf("self-comparison failed:\n%s", rep)
	}
}

// TestPublicAPICrashSafety exercises the crash-safety facade: checkpoint a
// live server, hard-drop it, restore with RestoreServerLatest, and watch a
// worker resync through the incarnation conflict.
func TestPublicAPICrashSafety(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ckpt, err := fleet.NewCheckpointer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	mkCfg := func() fleet.ServerConfig {
		return fleet.ServerConfig{
			Arch:             fleet.ArchSoftmaxMNIST,
			Algorithm:        fleet.NewAdaSGD(fleet.AdaSGDConfig{NonStragglerPct: 99.7, BootstrapSteps: 5}),
			LearningRate:     0.3,
			DefaultBatchSize: 8,
			Checkpointer:     ckpt,
			CheckpointEvery:  1,
		}
	}
	srv, err := fleet.NewServer(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	ds := fleet.TinyMNIST(2, 12, 4)
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		ID: 1, Arch: fleet.ArchSoftmaxMNIST, Local: ds.Train, Rng: simrand.New(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Step(ctx, srv); err != nil {
			t.Fatal(err)
		}
	}
	// In-flight round at the crash. Flush first: checkpoints are written by
	// a background goroutine, and the barrier is the durability point.
	srv.Flush()
	resp, err := w.Pull(ctx, srv)
	if err != nil || !resp.Accepted {
		t.Fatalf("pull: %v", err)
	}
	prep := w.Compute(resp)

	restored, err := fleet.RestoreServerLatest(mkCfg(), dir)
	if err != nil {
		t.Fatal(err)
	}
	// Stop its background checkpoint writer before TempDir is removed.
	defer func() { _ = restored.Close() }()
	if _, err := w.Push(ctx, restored, prep.Push); err == nil {
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
	if _, err := w.Step(ctx, restored); err != nil {
		t.Fatalf("post-restore step: %v", err)
	}

	// The empty-dir failure mode is a typed sentinel.
	if _, err := fleet.RestoreServerLatest(mkCfg(), t.TempDir()); !errors.Is(err, fleet.ErrNoCheckpoint) {
		t.Fatalf("empty dir: %v, want fleet.ErrNoCheckpoint", err)
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
