package core

import (
	"testing"

	"fleet/internal/data"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/simrand"
)

func traceConfig(alg learning.Algorithm) TraceConfig {
	return TraceConfig{
		Arch:           nn.ArchSoftmaxMNIST,
		Algorithm:      alg,
		LearningRate:   0.3,
		BatchSize:      16,
		Updates:        400,
		EvalEvery:      200,
		NetworkMinSec:  1.1,
		NetworkMeanSec: 2.4,
		ThinkTimeSec:   5,
		Seed:           11,
	}
}

func TestRunTraceLearns(t *testing.T) {
	users, test := fixtures(t)
	res := RunTrace(traceConfig(learning.NewAdaSGD(learning.AdaSGDConfig{
		NonStragglerPct: 99.7, BootstrapSteps: 20,
	})), users, test)
	if res.Accuracy.FinalY() < 0.4 {
		t.Fatalf("trace-driven training accuracy %v, want >= 0.4", res.Accuracy.FinalY())
	}
	if res.WallClockSec <= 0 {
		t.Fatal("simulated time did not advance")
	}
	if len(res.Staleness) != 400 {
		t.Fatalf("recorded %d staleness values, want 400", len(res.Staleness))
	}
}

func TestRunTraceStalenessEmerges(t *testing.T) {
	// With many concurrent workers and non-trivial latency, gradients must
	// arrive stale without any explicit staleness injection.
	users, test := fixtures(t)
	res := RunTrace(traceConfig(learning.DynSGD{}), users, test)
	if res.MeanStaleness <= 0 {
		t.Fatal("no emergent staleness; simulation broken")
	}
	positive := 0
	for _, tau := range res.Staleness {
		if tau < 0 {
			t.Fatal("negative staleness")
		}
		if tau > 0 {
			positive++
		}
	}
	if positive < len(res.Staleness)/4 {
		t.Fatalf("only %d/%d gradients stale; expected concurrency-driven staleness",
			positive, len(res.Staleness))
	}
}

func TestRunTraceDeterministic(t *testing.T) {
	users, test := fixtures(t)
	a := RunTrace(traceConfig(learning.DynSGD{}), users, test)
	b := RunTrace(traceConfig(learning.DynSGD{}), users, test)
	if a.Accuracy.FinalY() != b.Accuracy.FinalY() || a.WallClockSec != b.WallClockSec {
		t.Fatal("same seed must reproduce the trace run exactly")
	}
}

func TestRunTraceDropout(t *testing.T) {
	users, test := fixtures(t)
	cfg := traceConfig(learning.DynSGD{})
	cfg.DropoutProb = 0.3
	res := RunTrace(cfg, users, test)
	if res.Dropped == 0 {
		t.Fatal("30% dropout should lose some results")
	}
	// Training must still complete the requested updates despite churn.
	if len(res.Staleness) != cfg.Updates {
		t.Fatalf("completed %d updates, want %d", len(res.Staleness), cfg.Updates)
	}
}

func TestRunTraceSlowDevicesStaler(t *testing.T) {
	// A population doing longer tasks over slow networks must exhibit
	// higher staleness than one on fast networks with little concurrency.
	users, test := fixtures(t)

	slow := traceConfig(learning.DynSGD{})
	slow.BatchSize = 24
	slow.NetworkMinSec, slow.NetworkMeanSec = 3.8, 6

	fast := traceConfig(learning.DynSGD{})
	fast.NetworkMinSec, fast.NetworkMeanSec = 0.2, 0.4
	fast.ThinkTimeSec = 30 // little concurrency

	slowRes := RunTrace(slow, users, test)
	fastRes := RunTrace(fast, users, test)
	if slowRes.MeanStaleness <= fastRes.MeanStaleness {
		t.Fatalf("slow fleet staleness %v should exceed fast fleet %v",
			slowRes.MeanStaleness, fastRes.MeanStaleness)
	}
}

func TestRunTracePanics(t *testing.T) {
	users, test := fixtures(t)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil algorithm: expected panic")
			}
		}()
		RunTrace(TraceConfig{Arch: nn.ArchSoftmaxMNIST, LearningRate: 1, Updates: 1}, users, test)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no users: expected panic")
			}
		}()
		RunTrace(traceConfig(learning.DynSGD{}), nil, test)
	}()
}

func TestRunTraceStringer(t *testing.T) {
	users, test := fixtures(t)
	cfg := traceConfig(learning.DynSGD{})
	cfg.Updates = 20
	cfg.EvalEvery = 0
	res := RunTrace(cfg, users, test)
	if res.String() == "" {
		t.Fatal("empty summary")
	}
}

// fixtures reuse: defined in core_test.go. This silences unused-import
// linters if the fixtures signature changes.
var _ = data.TinyMNIST
var _ = simrand.New
