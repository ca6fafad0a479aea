package node

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fleet/internal/device"
	"fleet/internal/iprof"
	"fleet/internal/nn"
	"fleet/internal/persist"
	"fleet/internal/protocol"
	"fleet/internal/service"
	"fleet/internal/simrand"
	"fleet/internal/tenant"
)

// drive sends a deterministic stream of n task requests and gradient
// pushes against a softmax-mnist unit and returns every decision next to
// the final model and stats.
func drive(t *testing.T, svc service.Service, n int) (decisions []string, params []float64, stats *protocol.Stats) {
	t.Helper()
	ctx := context.Background()
	boot, err := svc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	paramCount := nn.ArchSoftmaxMNIST.Build(simrand.New(0)).ParamCount()
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
// bit.
func TestTenantUnitCompilesLikeSingleRoot(t *testing.T) {
	for _, tc := range []struct {
		name                         string
		stages, aggregator, admitted string
		k                            int
	}{
		{"defaults", "staleness", "mean", "", 1},
		{"filtered window", "staleness,norm-filter(100)", "mean", "min-batch(5),per-worker-quota(9,60)", 4},
		{"robust rule", "staleness", "trimmed(1)", "similarity(0.99)", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			single := rootSpec()
			single.Arch, single.Seed, single.K, single.DefaultBatchSize = "softmax-mnist", 3, tc.k, 16
			single.Stages, single.Aggregator, single.Admission = tc.stages, tc.aggregator, tc.admitted
			single.Now = func() time.Time { return time.Unix(0, 0) }
			multi := rootSpec()
			multi.Now = single.Now
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
				runs[i].decisions, runs[i].params, runs[i].stats = drive(t, rt.Service(), 32)
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
		drive(t, svc, 1)
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
// A negative one in a tenant declaration is refused with server.New's
// invalid_argument, naming the tenant, never replaced by the default.
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
		decisions[i], _, stats[i] = drive(t, rt.Service(), 40)
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

// TestTenantRecoverMatrix pins the stated policy of a tenant unit's boot,
// per subdirectory <dir>/<name> and whatever the deployment's Recover
// says: empty → a fresh model (epoch 0 on the very first boot, a minted
// nonce on every later checkpoint-less one), a valid checkpoint → restored
// at its version under a newly minted epoch, corrupt-only → refuses.
func TestTenantRecoverMatrix(t *testing.T) {
	for _, recover := range []string{"latest", "fresh", ""} {
		t.Run("recover="+recover, func(t *testing.T) {
			dir := t.TempDir()
			boot := func() (*Runtime, *protocol.Stats, error) {
				s := rootSpec()
				s.Tenants = []tenant.Config{{Name: "alpha", Arch: "softmax-mnist", Seed: 1}}
				s.Checkpoint = CheckpointSpec{Dir: dir, Every: 1, Recover: recover}
				rt, err := FromSpec(s)
				if err != nil {
					return nil, nil, err
				}
				st, err := rt.Service().Stats(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return rt, st, nil
			}
			rt, st, err := boot()
			if err != nil {
				t.Fatalf("first boot on an empty directory: %v", err)
			}
			if st.ServerEpoch != 0 || st.RestoredVersion != 0 {
				t.Fatalf("first boot = epoch %d restored %d, want 0/0", st.ServerEpoch, st.RestoredVersion)
			}
			_ = rt.Close()
			if _, err := os.Stat(filepath.Join(dir, "alpha")); err != nil {
				t.Fatalf("unit state is not under <dir>/<name>: %v", err)
			}

			rt, st, err = boot()
			if err != nil {
				t.Fatalf("second checkpoint-less boot: %v", err)
			}
			minted := st.ServerEpoch
			if minted == 0 {
				t.Fatal("second checkpoint-less boot reused epoch 0")
			}
			drive(t, rt.Service(), 3)
			if _, err := rt.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			_ = rt.Close()

			rt, st, err = boot()
			if err != nil {
				t.Fatalf("boot from a valid checkpoint: %v", err)
			}
			if st.RestoredVersion != 3 || st.ModelVersion != 3 {
				t.Fatalf("restored = version %d (model %d), want 3/3", st.RestoredVersion, st.ModelVersion)
			}
			if st.ServerEpoch == 0 || st.ServerEpoch == minted {
				t.Fatalf("restored epoch = %d, want nonzero and not the checkpoint's %d", st.ServerEpoch, minted)
			}
			_ = rt.Close()

			files, err := filepath.Glob(filepath.Join(dir, "alpha", "ckpt-*.fleet"))
			if err != nil || len(files) == 0 {
				t.Fatalf("no checkpoint files under <dir>/alpha: %v", err)
			}
			for _, f := range files {
				if err := os.Truncate(f, 12); err != nil {
					t.Fatal(err)
				}
			}
			var corrupt *persist.CorruptError
			if _, _, err := boot(); !errors.As(err, &corrupt) {
				t.Fatalf("boot on a corrupt-only directory: %v, want a CorruptError", err)
			}
		})
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
