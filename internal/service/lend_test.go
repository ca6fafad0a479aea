package service_test

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fleet/internal/compress"
	"fleet/internal/node"
	"fleet/internal/protocol"
	"fleet/internal/service"
	"fleet/internal/tenant"
)

// A push served through Call only borrows its gradient arrays: Call decodes
// them into recycled storage (protocol.Lend) and the next push overwrites
// it. The contract table drives every kind of service a wire endpoint
// fronts — a root under each window aggregator, the dp stage, an edge in
// front of a root, a root behind an edge's forwards, a tenant unit — with
// pushes through Call, and scribbles over every array a push lent the
// moment Call returns. The model they drain into must equal, bit for bit,
// the model of the same pushes fed in process with arrays of their own.

const (
	lendK      = 5  // a window: krum(1) and trimmed(1) need five members
	lendPushes = 15 // three windows
)

// lendUnit is one service under test and the model its windows reach.
type lendUnit struct {
	svc   service.Service
	model func(t *testing.T) []float64
}

// A unit is built around wire, which fronts the service its row puts
// behind Call: the wire under test, or in process for the control.
type unitFunc func(t *testing.T, wire func(service.Service) service.Service) lendUnit

func inProcess(svc service.Service) service.Service { return svc }

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

func rootUnit(stages, agg string) unitFunc {
	return func(t *testing.T, wire func(service.Service) service.Service) lendUnit {
		svc := compile(t, lendSpec(stages, agg)).Service()
		return lendUnit{svc: wire(svc), model: pulled(svc)}
	}
}

// edgeTree is an edge in front of a K=1 root (every forwarded K-sum lands
// at once); wireEdge puts the edge behind the wire, or else its forwards
// to the root go over it.
func edgeTree(wireEdge bool) unitFunc {
	return func(t *testing.T, wire func(service.Service) service.Service) lendUnit {
		root := lendSpec("staleness", "mean")
		root.K = 1
		rootSvc := compile(t, root).Service()
		edge := lendSpec("staleness", "mean")
		edge.Role, edge.ID = node.RoleEdge, 1_000_000
		edge.Upstream = node.UpstreamSpec{Service: rootSvc}
		if !wireEdge {
			edge.Upstream.Service = wire(rootSvc)
		}
		svc := compile(t, edge).Service()
		if wireEdge {
			svc = wire(svc)
		}
		return lendUnit{svc: svc, model: pulled(rootSvc)}
	}
}

func tenantUnit(t *testing.T, wire func(service.Service) service.Service) lendUnit {
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
	return lendUnit{svc: wire(svc), model: pulled(svc)}
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

// smallTopK builds pushes of a few dozen top-k coordinates each, which a
// window sums into a sparse forward.
func smallTopK(params int) []protocol.GradientPush {
	rng := rand.New(rand.NewSource(31))
	out := make([]protocol.GradientPush, lendPushes)
	for i := range out {
		p := protocol.GradientPush{WorkerID: i, BatchSize: 10, LabelCounts: []int{1, i % 3, 2},
			GradientLen: params, Encoding: compress.EncodingTopK}
		for j := i % 7; j < params; j += 1 + params/40 {
			p.SparseIndices = append(p.SparseIndices, int32(j))
			p.SparseValues = append(p.SparseValues, rng.NormFloat64()*1e-2)
		}
		out[i] = p
	}
	return out
}

// callWire is the wire under test: it serves every push through Call from
// its flat encoding and, the moment Call returns, scribbles over every
// gradient array the push lent (NaN values, zero indices).
type callWire struct {
	service.Service
	lentIndices *int // index arrays scribbled over
}

func (w callWire) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	var body, reply bytes.Buffer
	if err := protocol.Flat.Encode(&body, push); err != nil {
		return nil, err
	}
	spy := &lentArrays{Service: w.Service}
	if err := service.Call(ctx, spy, service.OpPush, protocol.Flat, &body, &reply); err != nil {
		return nil, err
	}
	for _, lent := range spy.pushes {
		for j := range lent.Gradient {
			lent.Gradient[j] = math.NaN()
		}
		for j := range lent.SparseValues {
			lent.SparseValues[j] = math.NaN()
		}
		clear(lent.SparseIndices)
		if len(lent.SparseIndices) > 0 {
			*w.lentIndices++
		}
	}
	var ack protocol.PushAck
	if err := protocol.Flat.Decode(&reply, &ack); err != nil {
		return nil, err
	}
	return &ack, nil
}

// lentArrays records every push it passes on: what Call lent it.
type lentArrays struct {
	service.Service
	pushes []protocol.GradientPush
}

func (s *lentArrays) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	s.pushes = append(s.pushes, *push)
	return s.Service.PushGradient(ctx, push)
}

func TestPushArraysAreOnlyBorrowed(t *testing.T) {
	rows := []struct {
		name   string
		unit   unitFunc
		pushes func(params int) []protocol.GradientPush
	}{
		{"mean", rootUnit("staleness", "mean"), lendPushSet},
		{"median", rootUnit("staleness", "median"), lendPushSet},
		{"krum", rootUnit("staleness", "krum(1)"), lendPushSet},
		{"trimmed mean", rootUnit("staleness", "trimmed(1)"), lendPushSet},
		{"dp stage", rootUnit("staleness,dp(1,1.2)", "mean"), lendPushSet},
		{"small top-k", rootUnit("staleness", "mean"), smallTopK},
		{"edge", edgeTree(true), lendPushSet},
		{"edge forward", edgeTree(false), smallTopK},
		{"tenant unit", tenantUnit, lendPushSet},
	}
	ctx := context.Background()
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			lentIndices := 0
			sut := row.unit(t, func(svc service.Service) service.Service {
				return callWire{Service: svc, lentIndices: &lentIndices}
			})
			control := row.unit(t, inProcess)
			pushes := row.pushes(len(sut.model(t)))
			for i, push := range pushes {
				st, err := sut.svc.Stats(ctx)
				if err != nil {
					t.Fatal(err)
				}
				push.ModelVersion, push.ModelEpoch = st.ModelVersion, st.ServerEpoch
				if _, err := sut.svc.PushGradient(ctx, &push); err != nil {
					t.Fatalf("push %d through Call: %v", i, err)
				}
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
			if lentIndices == 0 {
				t.Fatal("no push lent an index array")
			}
		})
	}
}
