package node

import (
	"context"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"fleet/internal/device"
	"fleet/internal/iprof"
	"fleet/internal/nn"
	"fleet/internal/protocol"
	"fleet/internal/service"
	"fleet/internal/simrand"
	"fleet/internal/tenant"
)

// drive sends a deterministic stream of n task requests and gradient
// pushes against a unit serving the named architecture and returns every
// decision next to the final model and stats.
func drive(t *testing.T, svc service.Service, arch string, n int) (decisions []string, params []float64, stats *protocol.Stats) {
	t.Helper()
	ctx := context.Background()
	boot, err := svc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	a, err := nn.ArchByName(arch)
	if err != nil {
		t.Fatal(err)
	}
	paramCount := a.Build(simrand.New(0)).ParamCount()
	version := boot.ModelVersion
	models := device.Catalogue()
	for i := 0; i < n; i++ {
		labels := make([]int, 10)
		labels[i%10] = 3 + i%4
		dev := device.New(models[i%len(models)], simrand.New(int64(1000+i)))
		resp, err := svc.RequestTask(ctx, &protocol.TaskRequest{
			WorkerID: i % 5, LabelCounts: labels,
			DeviceModel: dev.Model.Name, TimeFeatures: dev.Features(), EnergyFeatures: dev.EnergyFeatures(),
		})
		if err != nil {
			t.Fatal(err)
		}
		decisions = append(decisions, fmt.Sprintf("%v/%d/%s", resp.Accepted, resp.BatchSize, resp.Reason))
		grad := make([]float64, paramCount)
		grad[i%paramCount] = 1e-2 * float64(i+1)
		grad[(7*i+3)%paramCount] = -3e-3
		cost := dev.Execute(50)
		ack, err := svc.PushGradient(ctx, &protocol.GradientPush{
			WorkerID: i % 5, ModelVersion: version, ModelEpoch: boot.ServerEpoch,
			Gradient: grad, BatchSize: 50, LabelCounts: labels,
			DeviceModel: dev.Model.Name, CompTimeSec: cost.LatencySec, EnergyPct: cost.EnergyPct,
			TimeFeatures: iprof.FeaturesOf(dev, iprof.KindTime), EnergyFeatures: iprof.FeaturesOf(dev, iprof.KindEnergy),
		})
		if err != nil {
			t.Fatal(err)
		}
		version = ack.NewVersion
		decisions = append(decisions, fmt.Sprintf("%v/%d/%g", ack.Applied, ack.Staleness, ack.Scale))
	}
	// A one-class local dataset is unlike the spread the pushes recorded,
	// so no similarity threshold in these tests refuses the closing pull.
	dev := device.New(models[0], simrand.New(999))
	last, err := svc.RequestTask(ctx, &protocol.TaskRequest{
		WorkerID: 99, LabelCounts: []int{9},
		DeviceModel: dev.Model.Name, TimeFeatures: dev.Features(), EnergyFeatures: dev.EnergyFeatures(),
	})
	if err != nil || !last.Accepted {
		t.Fatalf("closing pull: %v %+v", err, last)
	}
	if stats, err = svc.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	return decisions, last.Params, stats
}

// sameBits compares two parameter vectors bit for bit.
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

// TestTenantUnitCompilesLikeSingleRoot: one compiler, so a one-tenant
// deployment and a single-model root declared with equal fields are the
// same server — same composed pipeline and admission chain, and after the
// same 32 gradients the same decisions, counters and parameters, bit for
// bit. That includes the zero block: both roles take the same defaults.
func TestTenantUnitCompilesLikeSingleRoot(t *testing.T) {
	for _, tc := range []struct {
		name  string
		block Spec // the model block both roles declare
		arch  string
	}{
		{"defaults", Spec{Arch: "softmax-mnist", LearningRate: 0.05, K: 1, NonStragglerPct: 99.7, Seed: 3, DefaultBatchSize: 16,
			Stages: "staleness", Aggregator: "mean"}, "softmax-mnist"},
		{"filtered window", Spec{Arch: "softmax-mnist", LearningRate: 0.05, K: 4, NonStragglerPct: 99.7, Seed: 3, DefaultBatchSize: 16,
			Stages: "staleness,norm-filter(100)", Aggregator: "mean", Admission: "min-batch(5),per-worker-quota(9,60)"}, "softmax-mnist"},
		{"robust rule", Spec{Arch: "softmax-mnist", LearningRate: 0.05, K: 4, NonStragglerPct: 99.7, Seed: 3, DefaultBatchSize: 16,
			Stages: "staleness", Aggregator: "trimmed(1)", Admission: "similarity(0.99)"}, "softmax-mnist"},
		{"zero block", Spec{}, "tiny-mnist"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			multi := rootSpec()
			multi.Now = func() time.Time { return time.Unix(0, 0) }
			single := tc.block
			single.Bind, single.Logf, single.Now = multi.Bind, multi.Logf, multi.Now
			multi.Tenants = []tenant.Config{{
				Name: "solo", Arch: single.Arch, LearningRate: single.LearningRate, K: single.K, Seed: single.Seed,
				DefaultBatchSize: single.DefaultBatchSize, NonStragglerPct: single.NonStragglerPct,
				Stages: single.Stages, Aggregator: single.Aggregator, Admission: single.Admission,
			}}
			var runs [2]struct {
				decisions []string
				params    []float64
				stats     *protocol.Stats
			}
			for i, s := range []Spec{single, multi} {
				rt, err := FromSpec(s)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = rt.Close() }()
				runs[i].decisions, runs[i].params, runs[i].stats = drive(t, rt.Service(), tc.arch, 32)
			}
			if !reflect.DeepEqual(runs[0].decisions, runs[1].decisions) {
				t.Fatalf("decisions diverge:\nsingle %v\ntenant %v", runs[0].decisions, runs[1].decisions)
			}
			if !sameBits(runs[0].params, runs[1].params) {
				t.Fatal("parameters diverge between a single-model root and its one-tenant twin")
			}
			if runs[1].stats.Tenant == nil || runs[1].stats.Tenant.Name != "solo" {
				t.Fatalf("tenant stats block = %+v", runs[1].stats.Tenant)
			}
			runs[1].stats.Tenant = nil
			if !reflect.DeepEqual(runs[0].stats, runs[1].stats) {
				t.Fatalf("stats diverge:\nsingle %+v\ntenant %+v", runs[0].stats, runs[1].stats)
			}
			if len(runs[0].stats.PipelineStages) == 0 || runs[0].stats.GradientsIn != 32 {
				t.Fatalf("the stream did not exercise the pipeline: %+v", runs[0].stats)
			}
		})
	}
}

// TestChildServerIsTheTenantsServer: each child of a multi-tenant root
// exposes the parameter server behind its tenant's Resolver service — a
// push through one tenant's service moves that child's model version and
// no other child's.
func TestChildServerIsTheTenantsServer(t *testing.T) {
	s := rootSpec()
	s.Tenants = []tenant.Config{{Name: "alpha", Arch: "softmax-mnist", Seed: 1}, {Name: "beta", Arch: "softmax-mnist", Seed: 2}}
	rt, err := FromSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rt.Close() }()
	children := rt.Assembly().Children
	if len(children) != 2 {
		t.Fatalf("%d children, want 2", len(children))
	}
	for i, c := range children {
		svc, name, err := rt.Assembly().Resolver(c.Name)
		if err != nil || name != c.Name {
			t.Fatalf("Resolver(%s) = %s, %v", c.Name, name, err)
		}
		drive(t, svc, "softmax-mnist", 1)
		for j, other := range children {
			want := 0
			if j <= i {
				want = 1
			}
			if _, v := other.Server.Model(); v != want {
				t.Fatalf("after a push through %s, child %s is at version %d, want %d", c.Name, other.Name, v, want)
			}
		}
	}
}

// TestTenantNegativeLearningRateFails: only 0 means an unset learning rate.
// A negative one in a tenant declaration is refused as invalid_argument,
// naming the tenant, never replaced by the default.
func TestTenantNegativeLearningRateFails(t *testing.T) {
	s := rootSpec()
	s.Tenants = []tenant.Config{{Name: "a", LearningRate: -0.1}}
	rt, err := FromSpec(s)
	if err == nil {
		_ = rt.Close()
		t.Fatal("a tenant with lr=-0.1 compiled")
	}
	if !protocol.IsCode(err, protocol.CodeInvalidArgument) || !strings.Contains(err.Error(), "tenant a:") {
		t.Fatalf("error = %v, want invalid_argument naming tenant a", err)
	}
}

// TestSpecKnobsEqualAdmissionString: the four Figure-2 knobs of a Spec
// mean exactly the -admission string they spell — same chain, and over
// the same request stream the same decisions and the same rejects by
// policy — whether the knobs disagree with the string or are all unset:
// the chain alone decides which profilers are pretrained, at the SLOs it
// states. (That this chain is the paper's controller is the server
// package's TestAdmissionEquivalentToLegacy.)
func TestSpecKnobsEqualAdmissionString(t *testing.T) {
	knobs := rootSpec()
	knobs.Arch, knobs.DefaultBatchSize = "softmax-mnist", 16
	knobs.TimeSLO, knobs.EnergySLO, knobs.MinBatch, knobs.MaxSimilarity = 2.5, 4, 25, 0.97
	spelled := knobs
	spelled.Admission = "iprof-time(2.5),iprof-energy(4),min-batch(25),similarity(0.97)"
	// The explicit string wins over knobs that disagree with it.
	spelled.MinBatch, spelled.MaxSimilarity = 1, 0.1
	alone := spelled
	alone.TimeSLO, alone.EnergySLO, alone.MinBatch, alone.MaxSimilarity = 0, 0, 0, 0

	var decisions [3][]string
	var stats [3]*protocol.Stats
	for i, s := range []Spec{knobs, spelled, alone} {
		rt, err := FromSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = rt.Close() }()
		decisions[i], _, stats[i] = drive(t, rt.Service(), "softmax-mnist", 40)
	}
	want := []string{"iprof-time(2.5)", "iprof-energy(4)", "min-batch(25)", "similarity(0.97)"}
	for i := range stats {
		if !reflect.DeepEqual(stats[i].AdmissionPolicies, want) {
			t.Fatalf("chain %d = %v, want %v", i, stats[i].AdmissionPolicies, want)
		}
	}
	for i := 1; i < len(stats); i++ {
		if !reflect.DeepEqual(decisions[0], decisions[i]) {
			t.Fatalf("decisions diverge:\nknobs %v\nspec %d %v", decisions[0], i, decisions[i])
		}
		if !reflect.DeepEqual(stats[0].RejectsByPolicy, stats[i].RejectsByPolicy) || stats[0].TasksDropped != stats[i].TasksDropped {
			t.Fatalf("rejects diverge: %v vs spec %d %v", stats[0].RejectsByPolicy, i, stats[i].RejectsByPolicy)
		}
	}
	if stats[0].TasksDropped == 0 || stats[0].TasksServed == 0 {
		t.Fatalf("the stream did not exercise both outcomes: %+v", stats[0])
	}
}

// TestRunClosesAssemblyWhenStartFails: a Run that cannot bind its listener
// exits 1 and leaves nothing behind — here the upstream session an edge's
// compiler opened, which only Close releases.
func TestRunClosesAssemblyWhenStartFails(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	closes := 0
	rt := New(Assembly{
		Name:          "fleet-agg",
		Addr:          ln.Addr().String(),
		CloseUpstream: func() error { closes++; return nil },
		Logf:          func(string, ...interface{}) {},
	})
	if code := rt.Run(context.Background(), nil); code != 1 {
		t.Fatalf("Run on an occupied port = %d, want 1", code)
	}
	if st := rt.State(); st != StateClosed {
		t.Fatalf("state after a failed Start = %s, want closed", st)
	}
	if closes != 1 {
		t.Fatalf("upstream session closed %d times after a failed Run, want 1: the assembly leaked", closes)
	}
}
