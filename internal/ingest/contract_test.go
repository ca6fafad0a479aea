package ingest_test

import (
	"context"
	"maps"
	"reflect"
	"testing"

	"fleet/internal/aggtree"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/pipeline"
	"fleet/internal/protocol"
	"fleet/internal/sched"
	"fleet/internal/server"
	"fleet/internal/service"
)

// The ingest contract: a root server and an edge aggregator fronting a root
// answer the same hostile and edge-case calls with the same error code, move
// the same counters, and leave the open K-window exactly as a node that
// never saw the rejected calls. It drives only the service.Service surface
// (and the root model the gradients end up in), so it holds for any
// implementation of the two nodes.

const window = 3 // K of the node under test

// deployment is one node under test plus the root model its windows reach.
type deployment struct {
	svc   service.Service
	model func() ([]float64, int)
}

func newRoot(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	cfg.Arch, cfg.Algorithm, cfg.LearningRate = nn.ArchTinyMNIST, learning.SSGD{}, 0.1
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// hostilePipeline rejects gradients of L2 norm above 5; hostileAdmission
// rejects every task (the default batch of 1 is below the minimum).
func hostilePipeline(t *testing.T) *pipeline.Pipeline {
	t.Helper()
	p, err := pipeline.Build("staleness,norm-filter(5)", "mean", pipeline.BuildOptions{Algorithm: learning.SSGD{}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func hostileAdmission() sched.AdmissionPolicy { return sched.NewChain(sched.MinBatch(5)) }

func rootDeployment(t *testing.T) deployment {
	s := newRoot(t, server.Config{
		K: window, Pipeline: hostilePipeline(t), Admission: hostileAdmission(), DefaultBatchSize: 1,
	})
	return deployment{svc: s, model: s.Model}
}

func edgeDeployment(t *testing.T) deployment {
	root := newRoot(t, server.Config{})
	edge, err := aggtree.New(aggtree.Config{
		Upstream: root, Arch: nn.ArchTinyMNIST, Algorithm: learning.SSGD{},
		K: window, Pipeline: hostilePipeline(t), Admission: hostileAdmission(), DefaultBatchSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return deployment{svc: edge, model: root.Model}
}

// call is one row of the contract table: a push or a task, the error code it
// must fail with ("" succeeds) and whether the admission chain must drop it.
type call struct {
	name     string
	canceled bool
	push     *protocol.GradientPush
	task     *protocol.TaskRequest
	code     protocol.ErrorCode
	dropped  bool
}

func calls(params int) []call {
	dense := func(at int, v float64) []float64 {
		g := make([]float64, params)
		g[at] = v
		return g
	}
	ok := func(name string, p protocol.GradientPush) call {
		if p.BatchSize == 0 {
			p.BatchSize = 4
		}
		p.LabelCounts = []int{1, 2}
		return call{name: name, push: &p}
	}
	bad := func(name string, code protocol.ErrorCode, p protocol.GradientPush) call {
		c := ok(name, p)
		c.code = code
		return c
	}
	sparse := func(idx []int32, vals []float64) protocol.GradientPush {
		return protocol.GradientPush{GradientLen: params, SparseIndices: idx, SparseValues: vals}
	}
	overlong := make([]int, 64)
	return []call{
		ok("dense", protocol.GradientPush{Gradient: dense(0, 1)}),
		{name: "canceled push", canceled: true, code: protocol.CodeCanceled,
			push: &protocol.GradientPush{Gradient: dense(1, 1), BatchSize: 4}},
		{name: "canceled task", canceled: true, code: protocol.CodeCanceled, task: &protocol.TaskRequest{}},
		bad("wrong gradient length", protocol.CodeInvalidArgument, protocol.GradientPush{Gradient: make([]float64, params-1)}),
		bad("empty gradient", protocol.CodeInvalidArgument, protocol.GradientPush{}),
		bad("non-positive batch", protocol.CodeInvalidArgument, protocol.GradientPush{Gradient: dense(1, 1), BatchSize: -3}),
		{name: "over-long push labels", code: protocol.CodeInvalidArgument,
			push: &protocol.GradientPush{Gradient: dense(1, 1), BatchSize: 4, LabelCounts: overlong}},
		{name: "negative push label", code: protocol.CodeInvalidArgument,
			push: &protocol.GradientPush{Gradient: dense(1, 1), BatchSize: 4, LabelCounts: []int{1, -1}}},
		{name: "over-long task labels", code: protocol.CodeInvalidArgument, task: &protocol.TaskRequest{LabelCounts: overlong}},
		bad("future model version", protocol.CodeVersionConflict, protocol.GradientPush{Gradient: dense(1, 1), ModelVersion: 1000}),
		bad("wrong model epoch", protocol.CodeVersionConflict, protocol.GradientPush{Gradient: dense(1, 1), ModelEpoch: 7}),
		bad("sparse index out of range", protocol.CodeInvalidArgument, sparse([]int32{1, int32(params)}, []float64{1, 1})),
		bad("sparse index/value mismatch", protocol.CodeInvalidArgument, sparse([]int32{1, 2}, []float64{1})),
		bad("norm filter", protocol.CodeInvalidArgument, protocol.GradientPush{Gradient: dense(1, 100)}),
		{name: "admission reject", task: &protocol.TaskRequest{WorkerID: 3, LabelCounts: []int{1}}, dropped: true},
		// Out-of-order and duplicate indices are canonicalized, not refused:
		// sorted, the last value on the wire winning.
		ok("non-ascending sparse", sparse([]int32{9, 2, 5}, []float64{0.9, 0.2, 0.5})),
		ok("duplicate sparse", sparse([]int32{4, 4, 7}, []float64{-1, 0.4, 0.7})), // closes window 1
		ok("dense again", protocol.GradientPush{Gradient: dense(3, -1)}),
		bad("norm filter, mid-window", protocol.CodeInvalidArgument, protocol.GradientPush{Gradient: dense(2, 100)}),
		ok("stale", protocol.GradientPush{Gradient: dense(6, 1), ModelVersion: -1}), // one window behind
		ok("last", protocol.GradientPush{Gradient: dense(8, 1)}),                    // closes window 2
	}
}

func TestIngestContractAcrossSinks(t *testing.T) {
	for _, sink := range []struct {
		name string
		new  func(*testing.T) deployment
	}{{"root", rootDeployment}, {"edge", edgeDeployment}} {
		t.Run(sink.name, func(t *testing.T) {
			ctx := context.Background()
			done, cancel := context.WithCancel(ctx)
			cancel()
			sut, control := sink.new(t), sink.new(t) // control never sees a rejected call
			params, _ := sut.model()
			stats := func(d deployment) *protocol.Stats {
				st, err := d.svc.Stats(ctx)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			// Prime the edge's lazy sync so the first row's before/after
			// stats are both taken on a synced node.
			if _, err := sut.svc.RequestTask(ctx, &protocol.TaskRequest{}); err != nil {
				t.Fatal(err)
			}
			if _, err := control.svc.RequestTask(ctx, &protocol.TaskRequest{}); err != nil {
				t.Fatal(err)
			}

			accepted := 0
			for _, c := range calls(len(params)) {
				before := stats(sut)
				callCtx := ctx
				if c.canceled {
					callCtx = done
				}
				var err error
				if c.task != nil {
					var resp *protocol.TaskResponse
					resp, err = sut.svc.RequestTask(callCtx, c.task)
					if err == nil && resp.Accepted == c.dropped {
						t.Fatalf("%s: accepted=%v, want dropped=%v", c.name, resp.Accepted, c.dropped)
					}
				} else {
					// Pushes name the node's clock relative to now: 0 is
					// current, -1 one window behind.
					push := *c.push
					rel := push.ModelVersion
					push.ModelVersion += before.ModelVersion
					var ack *protocol.PushAck
					ack, err = sut.svc.PushGradient(callCtx, &push)
					if err == nil {
						accepted++
						if ack.NewVersion != accepted/window || ack.Staleness != -rel {
							t.Fatalf("%s: ack %+v after %d accepted pushes, want version %d staleness %d",
								c.name, ack, accepted, accepted/window, -rel)
						}
						push.ModelVersion = rel + stats(control).ModelVersion
						if _, err := control.svc.PushGradient(ctx, &push); err != nil {
							t.Fatalf("%s: control refused: %v", c.name, err)
						}
					}
				}
				if c.code == "" && err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if c.code != "" && !protocol.IsCode(err, c.code) {
					t.Fatalf("%s: error %v, want code %s", c.name, err, c.code)
				}

				after, want := stats(sut), *before
				want.RejectsByPolicy = maps.Clone(before.RejectsByPolicy)
				switch {
				case c.dropped:
					want.TasksDropped++
					want.RejectsByPolicy["min-batch(5)"]++
				case c.push != nil && c.code == "":
					want.GradientsIn++
					want.LeafGradients++
					want.ModelVersion = accepted / window
					want.MeanStaleness = after.MeanStaleness // checked through the acks
				}
				if !reflect.DeepEqual(after, &want) {
					t.Fatalf("%s: stats moved\n from %+v\n to   %+v\n want %+v", c.name, before, after, &want)
				}
			}
			if accepted%window != 0 {
				t.Fatalf("table leaves a partial window: %d accepted pushes", accepted)
			}

			// Every rejected call left pending and the window's mass alone:
			// the windows closed where the control's did, on the same model.
			got, gotV := sut.model()
			ctl, ctlV := control.model()
			if gotV != ctlV || !reflect.DeepEqual(got, ctl) {
				t.Fatalf("model diverged from the control that saw no rejected call (v%d vs v%d)", gotV, ctlV)
			}
			if s, c := stats(sut), stats(control); s.GradientsIn != c.GradientsIn || s.DrainErrors != 0 {
				t.Fatalf("gradients in %d vs control %d, drain errors %d", s.GradientsIn, c.GradientsIn, s.DrainErrors)
			}
		})
	}
}
