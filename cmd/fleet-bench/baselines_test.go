package main

import (
	"bytes"
	"context"
	"io"
	"path/filepath"
	"testing"

	"fleet/internal/loadgen"
)

// baselineRuns holds, per built-in scenario, the flags its committed
// baseline was generated with beyond -seed 42 -max-protocol-errors 0: its
// accuracy floor and any embedded comparison, whose verdicts are part of
// the file. It is the one place those flags live. Regenerating a baseline
// after an intentional behaviour change means running its row, after which
// git diff bench/baselines shows exactly what moved:
//
//	fleet-bench -scenario <s> -seed 42 -max-protocol-errors 0 <flags> -out bench/baselines/BENCH_<s>.json
var baselineRuns = []struct {
	scenario string
	flags    []string
}{
	{"uniform", []string{"-min-accuracy", "0.8"}},
	{"straggler-churn", []string{"-min-accuracy", "0.25"}},
	{"byzantine-krum", []string{"-min-accuracy", "0.6"}},
	{"delta-mix", []string{"-min-accuracy", "0.45"}},
	{"lossy-net", []string{"-min-accuracy", "0.25"}},
	{"server-restart", []string{"-min-accuracy", "0.9"}},
	{"stream-push", []string{"-min-accuracy", "0.95",
		"-transport", "stream", "-compare-transport", "http", "-assert-transport-win"}},
	{"agg-tree", []string{"-min-accuracy", "0.85"}},
	{"multi-tenant", []string{"-min-accuracy", "0.8", "-compare-solo", "-assert-isolation"}},
}

// TestBaselinesReplay is the behavioural contract: every built-in scenario,
// run as its row says, converges with zero protocol errors, passes its
// assertions and writes bench/baselines/BENCH_<s>.json byte for byte.
// Runs are deterministic, so any difference is a
// behaviour change: the failure names the first differing line, and a PR
// that means it regenerates the file from the row.
func TestBaselinesReplay(t *testing.T) {
	covered := map[string]bool{}
	for _, row := range baselineRuns {
		covered[row.scenario] = true
		t.Run(row.scenario, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "BENCH_"+row.scenario+".json")
			args := append([]string{"-scenario", row.scenario, "-seed", "42", "-max-protocol-errors", "0"}, row.flags...)
			var stderr bytes.Buffer
			if code := run(context.Background(), append(args, "-out", out), io.Discard, &stderr); code != 0 {
				t.Fatalf("run exited %d:\n%s", code, stderr.String())
			}
			baseline := filepath.Join("..", "..", "bench", "baselines", "BENCH_"+row.scenario+".json")
			if code := run(context.Background(), []string{"-compare", baseline, "-against", out}, io.Discard, &stderr); code != 0 {
				t.Fatalf("-compare exited %d:\n%s", code, stderr.String())
			}
		})
	}
	for _, name := range loadgen.Names() {
		if !covered[name] {
			t.Errorf("scenario %q has no row in baselineRuns: its baseline is replayed by nothing", name)
		}
	}
}
