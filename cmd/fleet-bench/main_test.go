package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fleet/internal/loadgen"
)

func TestParseBenchValidation(t *testing.T) {
	for _, args := range [][]string{
		{},                                 // nothing requested
		{"-compare", "a.json"},             // missing -against
		{"-scenario", "uniform", "stray"},  // positional junk
		{"-scenario", "uniform", "-bogus"}, // unknown flag
		{"-scenario", "uniform", "-assert-transport-win"},                                // needs -compare-transport
		{"-scenario", "uniform", "-transport", "stream", "-compare-transport", "stream"}, // twin = self
		{"-scenario", "uniform", "-compare-transport", "inproc", "-transport", "inproc"}, // twin = self (default spelled out)
		{"-scenario", "uniform", "-compare-transport", "semaphore-flags"},                // unknown twin transport
		{"-scenario", "uniform", "-lr", "-1"},                                            // negative learning rate
		{"-scenario", "uniform", "-workers", "-3"},                                       // negative fleet size
		{"-scenario", "uniform", "-rounds", "-2"},                                        // negative rounds
		{"-scenario", "uniform", "-k", "-1"},                                             // negative K
	} {
		if _, err := parseBench(args, io.Discard); err == nil {
			t.Errorf("args %v parsed without error", args)
		}
	}
}

// TestSpecFlagsRoundTripIntoRunner: the spec-grammar flags must land in the
// exact config fields the runner builds the server from.
func TestSpecFlagsRoundTripIntoRunner(t *testing.T) {
	o, err := parseBench([]string{
		"-scenario", "uniform", "-seed", "99",
		"-workers", "7", "-rounds", "3",
		"-arch", "tiny-mnist", "-lr", "0.05", "-k", "4",
		"-stages", "staleness,norm-filter(50)",
		"-aggregator", "trimmed(1)",
		"-admission", "min-batch(2),per-worker-quota(5,60)",
		"-transport", "http",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	r, err := buildRunner(o)
	if err != nil {
		t.Fatal(err)
	}
	sc := r.Scenario
	if r.Seed != 99 || sc.Workers != 7 || sc.Rounds != 3 {
		t.Fatalf("fleet overrides lost: seed=%d workers=%d rounds=%d", r.Seed, sc.Workers, sc.Rounds)
	}
	if sc.Server.Arch != "tiny-mnist" || sc.Server.LearningRate != 0.05 || sc.Server.K != 4 {
		t.Fatalf("server overrides lost: %+v", sc.Server)
	}
	if sc.Server.Stages != "staleness,norm-filter(50)" || sc.Server.Aggregator != "trimmed(1)" {
		t.Fatalf("pipeline specs lost: %+v", sc.Server)
	}
	if sc.Server.Admission != "min-batch(2),per-worker-quota(5,60)" {
		t.Fatalf("admission spec lost: %q", sc.Server.Admission)
	}
	if r.Transport != loadgen.TransportHTTP {
		t.Fatalf("transport lost: %v", r.Transport)
	}
	// And a malformed spec must surface when the runner executes.
	bad, _ := parseBench([]string{"-scenario", "uniform", "-aggregator", "krum(0.5)"}, io.Discard)
	br, err := buildRunner(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := br.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "integer") {
		t.Fatalf("malformed aggregator spec: err = %v", err)
	}
}

func TestUnknownScenarioFails(t *testing.T) {
	o, err := parseBench([]string{"-scenario", "nope"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildRunner(o); err == nil {
		t.Fatal("unknown scenario built a runner")
	}
}

func TestListPrintsScenarios(t *testing.T) {
	var out bytes.Buffer
	if code := run(context.Background(), []string{"-list"}, &out, io.Discard); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, name := range loadgen.Names() {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

// TestRunEmitsDeterministicJSON is the end-to-end acceptance path: two
// invocations write byte-identical files, and -compare agrees; another seed or one edited field fails it, naming the first
// differing line.
func TestRunEmitsDeterministicJSON(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	args := []string{"-scenario", "straggler-churn", "-seed", "42", "-workers", "8", "-rounds", "4",
		"-max-protocol-errors", "0"}
	if code := run(context.Background(), append(args, "-out", a), io.Discard, os.Stderr); code != 0 {
		t.Fatalf("first run exited %d", code)
	}
	if code := run(context.Background(), append(args, "-out", b), io.Discard, os.Stderr); code != 0 {
		t.Fatalf("second run exited %d", code)
	}
	var out bytes.Buffer
	if code := run(context.Background(), []string{"-compare", a, "-against", b}, &out, os.Stderr); code != 0 {
		t.Fatalf("-compare of a replay exited %d:\n%s", code, out.String())
	}
	c := filepath.Join(dir, "c.json")
	if code := run(context.Background(), []string{"-scenario", "straggler-churn", "-seed", "43",
		"-workers", "8", "-rounds", "4", "-out", c}, io.Discard, os.Stderr); code != 0 {
		t.Fatal("seed-43 run failed")
	}
	raw, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	var res loadgen.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	res.ThroughputPerSec *= 0.9
	d := filepath.Join(dir, "d.json")
	if err := res.WriteFile(d); err != nil {
		t.Fatal(err)
	}
	for against, want := range map[string]string{c: `"seed": 43`, d: `"throughput_pushes_per_sec"`} {
		var stderr bytes.Buffer
		if code := run(context.Background(), []string{"-compare", a, "-against", against}, io.Discard, &stderr); code != 1 {
			t.Errorf("-compare %s exited %d, want 1", against, code)
		}
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("-compare %s does not name %s:\n%s", against, want, stderr.String())
		}
	}
}

// TestStdoutOutIsJSON: with -out - stdout carries the result alone, also
// when an embedded comparison prints its summary line.
func TestStdoutOutIsJSON(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "uniform", "-transport", "http", "-compare-transport", "inproc"},
		{"-scenario", "multi-tenant", "-compare-solo"},
	} {
		var stdout, stderr bytes.Buffer
		args = append(args, "-seed", "42", "-workers", "4", "-rounds", "2", "-out", "-")
		if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v exited %d:\n%s", args, code, stderr.String())
		}
		var res loadgen.Result
		if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
			t.Errorf("%v: stdout is not a result: %v", args, err)
		}
		if !strings.Contains(stderr.String(), " vs ") {
			t.Errorf("%v: summary line missing from stderr:\n%s", args, stderr.String())
		}
	}
}

func TestAssertionFlagsGate(t *testing.T) {
	out := filepath.Join(t.TempDir(), "r.json")
	// An impossible accuracy floor must fail the invocation.
	code := run(context.Background(), []string{"-scenario", "uniform", "-seed", "1",
		"-workers", "4", "-rounds", "2", "-out", out, "-min-accuracy", "1.01"}, io.Discard, io.Discard)
	if code != 1 {
		t.Fatalf("min-accuracy assert exited %d, want 1", code)
	}
}
