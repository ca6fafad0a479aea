package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"fleet/internal/core"
	"fleet/internal/learning"
	"fleet/internal/metrics"
	"fleet/internal/nn"
)

// TestEngineVsDriver is the transitional oracle of the engine's deletion:
// every training run of every FL experiment executes twice — once on
// internal/core's offline engine, once on the controlled-staleness driver
// over server.Server — and the two are compared bit for bit: accuracy
// series, every applied scale and staleness, executed/rejected counts and
// the final parameter vector. The experiment itself continues on the
// engine's result, so its Report is the parent's.
func TestEngineVsDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every FL experiment twice")
	}
	var id string
	var call int
	var engineTime, driverTime time.Duration
	timed := func(into *time.Duration, f func()) {
		start := time.Now()
		f()
		*into += time.Since(start)
	}
	// fresh rewinds a stateful algorithm between the two runs.
	fresh := func(alg learning.Algorithm) func() {
		if a, ok := alg.(*learning.AdaSGD); ok {
			st := a.ExportState()
			return func() { a.RestoreState(st) }
		}
		return func() {}
	}
	report := func(what string, diffs []string, engine []float64) {
		call++
		verdict := "IDENTICAL"
		if len(diffs) > 0 {
			verdict = fmt.Sprintf("DIFFERS %v", diffs)
			// fig11's dp stage draws its own noise stream; fig3 rounds
			// γ·(Σ/W) against (γ/W)·Σ. Anything else is a wrong loop.
			if id != "fig11" && id != "fig3" {
				t.Errorf("%s #%d %s: %s", id, call, what, verdict)
			}
		}
		t.Logf("%-19s #%-2d %-44s %s params %s", id, call, what, verdict, hashParams(engine))
	}

	defer func(a func(core.AsyncConfig, [][]nn.Sample, []nn.Sample) *core.AsyncResult,
		tr func(core.TraceConfig, [][]nn.Sample, []nn.Sample) *core.TraceResult,
		sm func(core.SyncMixedConfig, []nn.Sample, []nn.Sample) *metrics.Series) {
		runAsync, runTrace, runSyncMixed = a, tr, sm
	}(runAsync, runTrace, runSyncMixed)

	runAsync = func(cfg core.AsyncConfig, users [][]nn.Sample, test []nn.Sample) *core.AsyncResult {
		rewind := fresh(cfg.Algorithm)
		var e, d *core.AsyncResult
		timed(&engineTime, func() { e = core.RunAsync(cfg, users, test) })
		rewind()
		timed(&driverTime, func() { d = core.ServedAsync(cfg, users, test) })
		var diffs []string
		check := func(name string, same bool) {
			if !same {
				diffs = append(diffs, name)
			}
		}
		check("accuracy", sameFloats(e.Accuracy.Y, d.Accuracy.Y) && sameFloats(e.Accuracy.X, d.Accuracy.X))
		for c, s := range e.ClassAccuracy {
			check(fmt.Sprintf("class%d", c), sameFloats(s.Y, d.ClassAccuracy[c].Y))
		}
		check("scales", sameFloats(e.Scales, d.Scales))
		check("staleness", fmt.Sprint(e.Staleness) == fmt.Sprint(d.Staleness))
		check("executed", e.TasksExecuted == d.TasksExecuted)
		check("rejected", e.TasksRejected == d.TasksRejected)
		check("final", math.Float64bits(e.FinalAccuracy) == math.Float64bits(d.FinalAccuracy))
		check("params", sameFloats(e.Params, d.Params))
		what := fmt.Sprintf("async %s steps=%d K=%d exec=%d rej=%d", cfg.Algorithm.Name(), cfg.Steps, max(cfg.K, 1), e.TasksExecuted, e.TasksRejected)
		if len(diffs) > 0 {
			what += fmt.Sprintf(" final %.3f→%.3f", e.FinalAccuracy, d.FinalAccuracy)
		}
		report(what, diffs, e.Params)
		return e
	}
	runTrace = func(cfg core.TraceConfig, users [][]nn.Sample, test []nn.Sample) *core.TraceResult {
		rewind := fresh(cfg.Algorithm)
		var e, d *core.TraceResult
		timed(&engineTime, func() { e = core.RunTrace(cfg, users, test) })
		rewind()
		timed(&driverTime, func() { d = core.ServedTrace(cfg, users, test) })
		var diffs []string
		check := func(name string, same bool) {
			if !same {
				diffs = append(diffs, name)
			}
		}
		check("accuracy", sameFloats(e.Accuracy.Y, d.Accuracy.Y) && sameFloats(e.Accuracy.X, d.Accuracy.X))
		check("staleness", fmt.Sprint(e.Staleness) == fmt.Sprint(d.Staleness))
		check("clock", math.Float64bits(e.WallClockSec) == math.Float64bits(d.WallClockSec) && e.Dropped == d.Dropped)
		check("params", sameFloats(e.Params, d.Params))
		report(fmt.Sprintf("trace %s updates=%d staleness-values=%d", cfg.Algorithm.Name(), cfg.Updates, len(e.Staleness)), diffs, e.Params)
		return e
	}
	runSyncMixed = func(cfg core.SyncMixedConfig, train, test []nn.Sample) *metrics.Series {
		var e, d *metrics.Series
		timed(&engineTime, func() { e = core.RunSyncMixed(cfg, train, test) })
		timed(&driverTime, func() { d = core.ServedSyncMixed(cfg, train, test) })
		var diffs []string
		if !sameFloats(e.Y, d.Y) {
			diffs = append(diffs, fmt.Sprintf("accuracy %.3f→%.3f", e.Y, d.Y))
		}
		report(fmt.Sprintf("sync %d+%d workers steps=%d", cfg.StrongWorkers, cfg.WeakWorkers, cfg.Steps), diffs, nil)
		return e
	}

	for _, id = range []string{
		"fig8", "fig9", "fig10", "fig15", "ablation-dampening", "ablation-similarity",
		"ablation-spct", "ablation-k", "trace-staleness", "fig11", "fig3",
	} {
		call = 0
		if _, err := Run(id, ScaleCI); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wall time over all runs: engine %.1fs, driver %.1fs (%.2fx)",
		engineTime.Seconds(), driverTime.Seconds(), driverTime.Seconds()/engineTime.Seconds())
}

func sameFloats(a, b []float64) bool {
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

// hashParams is the SHA-256 of a parameter vector's IEEE-754 bits.
func hashParams(p []float64) string {
	if p == nil {
		return "-"
	}
	h := sha256.New()
	var b [8]byte
	for _, v := range p {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
