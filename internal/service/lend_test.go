package service_test

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fleet/internal/node"
	"fleet/internal/protocol"
	"fleet/internal/service"
	"fleet/internal/tenant"
)

// A push served through Call only borrows its model-sized arrays: Call
// decodes them into recycled storage (protocol.Lend) and the next push
// overwrites it. The contract table drives every kind of service a wire
// endpoint fronts — a root under each window aggregator, the dp stage, an
// edge in front of a root, a tenant unit — with pushes through Call, and
// scribbles NaN over every array a push lent the moment Call returns. The
// model they drain into must equal, bit for bit, the model of the same
// pushes fed in process with arrays of their own.

const (
	lendK      = 5  // a window: krum(1) and trimmed(1) need five members
	lendPushes = 15 // three windows
)

// lendUnit is one service under test and the model its windows reach.
type lendUnit struct {
	svc   service.Service
	model func(t *testing.T) []float64
}

func quiet(string, ...interface{}) {}

func lendSpec(stages, agg string) node.Spec {
	return node.Spec{
		Arch: "mnist", K: lendK, LearningRate: 0.05, Seed: 3,
		Stages: stages, Aggregator: agg,
		Bind: node.BindSpec{Transport: "none"}, Logf: quiet,
	}
}

func compile(t *testing.T, s node.Spec) *node.Runtime {
	t.Helper()
	rt, err := node.FromSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt
}

// pulled reads svc's model with a full pull under a plain context (the
// caller keeps what it is served).
func pulled(svc service.Service) func(t *testing.T) []float64 {
	return func(t *testing.T) []float64 {
		t.Helper()
		resp, err := svc.RequestTask(context.Background(), &protocol.TaskRequest{})
		if err != nil || !resp.Accepted {
			t.Fatalf("model pull: %v (%+v)", err, resp)
		}
		return resp.Params
	}
}

func rootUnit(stages, agg string) func(*testing.T) lendUnit {
	return func(t *testing.T) lendUnit {
		svc := compile(t, lendSpec(stages, agg)).Service()
		return lendUnit{svc: svc, model: pulled(svc)}
	}
}

func edgeUnit(t *testing.T) lendUnit {
	root := lendSpec("staleness", "mean")
	root.K = 1 // every forwarded K-sum lands at once
	rootSvc := compile(t, root).Service()
	edge := lendSpec("staleness", "mean")
	edge.Role, edge.ID = node.RoleEdge, 1_000_000
	edge.Upstream = node.UpstreamSpec{Service: rootSvc}
	return lendUnit{svc: compile(t, edge).Service(), model: pulled(rootSvc)}
}

func tenantUnit(t *testing.T) lendUnit {
	rt := compile(t, node.Spec{
		Tenants: []tenant.Config{{Name: "t", Arch: "mnist", K: lendK, LearningRate: 0.05, Seed: 3,
			Stages: "staleness,dp(1,1.2)", Aggregator: "median"}},
		DefaultTenant: "t",
		Bind:          node.BindSpec{Transport: "none"}, Logf: quiet,
	})
	svc, _, err := rt.Assembly().Resolver("t")
	if err != nil {
		t.Fatal(err)
	}
	return lendUnit{svc: svc, model: pulled(svc)}
}

// lendPushes builds the pushes: dense and sparse in turn, every sparse one
// with more values than protocol.Lend's threshold.
func lendPushSet(params int) []protocol.GradientPush {
	rng := rand.New(rand.NewSource(29))
	out := make([]protocol.GradientPush, lendPushes)
	for i := range out {
		p := protocol.GradientPush{WorkerID: i, BatchSize: 10, LabelCounts: []int{i % 3, 1, 2}}
		if i%2 == 0 {
			p.Gradient = make([]float64, params)
			for j := range p.Gradient {
				p.Gradient[j] = rng.NormFloat64() * 1e-2
			}
		} else {
			p.GradientLen = params
			for j := i % 10; j < params; j++ {
				if j%10 != 0 {
					p.SparseIndices = append(p.SparseIndices, int32(j))
					p.SparseValues = append(p.SparseValues, rng.NormFloat64()*1e-2)
				}
			}
		}
		out[i] = p
	}
	return out
}

// lentArrays records the gradient arrays of every push it passes on.
type lentArrays struct {
	service.Service
	arrays [][]float64
}

func (s *lentArrays) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	s.arrays = append(s.arrays, push.Gradient, push.SparseValues)
	return s.Service.PushGradient(ctx, push)
}

func TestPushArraysAreOnlyBorrowed(t *testing.T) {
	rows := []struct {
		name string
		unit func(*testing.T) lendUnit
	}{
		{"mean", rootUnit("staleness", "mean")},
		{"median", rootUnit("staleness", "median")},
		{"krum", rootUnit("staleness", "krum(1)")},
		{"trimmed mean", rootUnit("staleness", "trimmed(1)")},
		{"dp stage", rootUnit("staleness,dp(1,1.2)", "mean")},
		{"edge", edgeUnit},
		{"tenant unit", tenantUnit},
	}
	ctx := context.Background()
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			sut, control := row.unit(t), row.unit(t)
			pushes := lendPushSet(len(sut.model(t)))
			spy := &lentArrays{Service: sut.svc}
			for i, push := range pushes {
				st, err := sut.svc.Stats(ctx)
				if err != nil {
					t.Fatal(err)
				}
				push.ModelVersion, push.ModelEpoch = st.ModelVersion, st.ServerEpoch
				var body bytes.Buffer
				if err := protocol.Flat.Encode(&body, &push); err != nil {
					t.Fatal(err)
				}
				if err := service.Call(ctx, spy, service.OpPush, protocol.Flat, &body, io.Discard); err != nil {
					t.Fatalf("push %d through Call: %v", i, err)
				}
				for _, a := range spy.arrays {
					for j := range a {
						a[j] = math.NaN()
					}
				}
				spy.arrays = spy.arrays[:0]

				// The control's arrays are its own and never written again.
				push.Gradient, push.SparseIndices, push.SparseValues = slices.Clone(push.Gradient),
					slices.Clone(push.SparseIndices), slices.Clone(push.SparseValues)
				if _, err := control.svc.PushGradient(ctx, &push); err != nil {
					t.Fatalf("push %d in process: %v", i, err)
				}
			}
			got, want := sut.model(t), control.model(t)
			if len(got) != len(want) {
				t.Fatalf("model sizes %d and %d", len(got), len(want))
			}
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("param %d: %v behind Call, %v in process (a lent array was kept past its push)", j, got[j], want[j])
				}
			}
			if v, _ := sut.svc.Stats(ctx); v == nil || v.ModelVersion == 0 {
				t.Fatalf("no window closed: %+v", v)
			}
		})
	}
}
