// fleet-bench runs a named fleet-simulation scenario (internal/loadgen)
// against a live FLeet server configuration and emits a machine-readable
// BENCH_<scenario>.json with throughput, latency percentiles, staleness
// histogram, rejects-by-policy and accuracy-vs-round.
//
// Run a scenario (deterministic virtual time; same seed → identical JSON):
//
//	fleet-bench -scenario straggler-churn -seed 42
//
// Override fleet size or the server's spec-grammar knobs:
//
//	fleet-bench -scenario byzantine-krum -workers 50 -aggregator 'trimmed(0.2)' -k 10
//
// Check that a run replays a committed baseline byte for byte; on a
// mismatch it exits 1 and names the first differing line of the two files:
//
//	fleet-bench -compare bench/baselines/BENCH_uniform.json -against BENCH_uniform.json
//
// The flags each committed baseline was generated with are the rows of
// TestBaselinesReplay, which replays every one of them under go test.
//
// List what's runnable: fleet-bench -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"fleet/internal/loadgen"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// benchOptions is the parsed command line.
type benchOptions struct {
	scenario  string
	seed      int64
	out       string
	list      bool
	transport string

	// Scenario overrides (zero/empty: keep the scenario's value).
	workers   int
	rounds    int
	arch      string
	lr        float64
	k         int
	stages    string
	agg       string
	admission string
	compress  string
	codec     string

	// Assertions on the run's result.
	minAccuracy       float64
	maxProtocolErrors int

	// Transport head-to-head: run the same scenario+seed again over the
	// named twin transport and embed the comparison into the result.
	compareTransport string
	assertWin        bool

	// Multi-tenant isolation: re-run each tenant's derived sub-scenario
	// solo (no tenant layer, same derived seed) and embed the comparison;
	// optionally gate on the noisy-neighbor contract.
	compareSolo     bool
	assertIsolation bool

	// Compare mode: -against must replay -compare bit-for-bit.
	compare string
	against string
}

// parseBench parses args without touching the process-global flag set, so
// tests exercise the exact production path.
func parseBench(args []string, stderr io.Writer) (*benchOptions, error) {
	o := &benchOptions{}
	fs := flag.NewFlagSet("fleet-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.scenario, "scenario", "", "scenario name (see -list)")
	fs.Int64Var(&o.seed, "seed", 1, "master seed; every random stream derives from it")
	fs.StringVar(&o.out, "out", "", `output path (default BENCH_<scenario>.json; "-" for stdout)`)
	fs.BoolVar(&o.list, "list", false, "list built-in scenarios and exit")
	fs.StringVar(&o.transport, "transport", "inproc", "inproc (direct service calls), http (per-request v1 wire protocol) or stream (persistent sessions with server-pushed announces)")
	fs.IntVar(&o.workers, "workers", 0, "override the scenario's fleet size")
	fs.IntVar(&o.rounds, "rounds", 0, "override the rounds per worker")
	fs.StringVar(&o.arch, "arch", "", "override the model architecture")
	fs.Float64Var(&o.lr, "lr", 0, "override the learning rate")
	fs.IntVar(&o.k, "k", 0, "override gradients per model update")
	fs.StringVar(&o.stages, "stages", "", "override the update-pipeline stage specs")
	fs.StringVar(&o.agg, "aggregator", "", "override the window-aggregator spec")
	fs.StringVar(&o.admission, "admission", "", "override the admission-chain spec")
	fs.StringVar(&o.compress, "compress", "", `override the scenario's uplink compression chain (e.g. "topk(12),q8"; "dense" clears it)`)
	fs.StringVar(&o.codec, "codec", "", "override the scenario's wire codec: flat, json")
	fs.Float64Var(&o.minAccuracy, "min-accuracy", 0, "fail unless final accuracy reaches this (0 disables)")
	fs.IntVar(&o.maxProtocolErrors, "max-protocol-errors", -1, "fail when protocol errors exceed this (-1 disables; CI uses 0)")
	fs.StringVar(&o.compareTransport, "compare-transport", "", "also run the scenario over this twin transport (same seed) and embed the poll-vs-push comparison")
	fs.BoolVar(&o.assertWin, "assert-transport-win", false, "with -compare-transport: fail unless this transport wins round p95 and connections per worker at equal accuracy")
	fs.BoolVar(&o.compareSolo, "compare-solo", false, "multi-tenant scenarios: re-run each tenant's sub-scenario solo (same derived seed, no tenant layer) and embed the isolation comparison")
	fs.BoolVar(&o.assertIsolation, "assert-isolation", false, "with -compare-solo: fail unless unconstrained tenants replay their solo twins bit-for-bit and constrained tenants show attributed throttling with zero protocol errors")
	fs.StringVar(&o.compare, "compare", "", "baseline BENCH_*.json: instead of running, require -against to equal it byte for byte")
	fs.StringVar(&o.against, "against", "", "current BENCH_*.json compared to -compare")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if o.compare != "" && o.against == "" {
		return nil, fmt.Errorf("-compare needs -against")
	}
	if o.assertWin && o.compareTransport == "" {
		return nil, fmt.Errorf("-assert-transport-win needs -compare-transport")
	}
	if o.compareTransport != "" {
		switch o.compareTransport {
		case string(loadgen.TransportInProc), string(loadgen.TransportHTTP), string(loadgen.TransportStream):
		default:
			return nil, fmt.Errorf("unknown -compare-transport %q (want inproc, http or stream)", o.compareTransport)
		}
		if o.compareTransport == o.transport {
			return nil, fmt.Errorf("-compare-transport %q is the run's own transport", o.compareTransport)
		}
	}
	if o.lr < 0 {
		return nil, fmt.Errorf("-lr must not be negative, got %g", o.lr)
	}
	if o.minAccuracy < 0 {
		return nil, fmt.Errorf("-min-accuracy must not be negative, got %g (0 disables)", o.minAccuracy)
	}
	if o.maxProtocolErrors < -1 {
		return nil, fmt.Errorf("-max-protocol-errors must be -1 (disabled) or more, got %d", o.maxProtocolErrors)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"-workers", o.workers}, {"-rounds", o.rounds}, {"-k", o.k}} {
		if f.v < 0 {
			return nil, fmt.Errorf("%s must not be negative, got %d", f.name, f.v)
		}
	}
	if o.assertIsolation && !o.compareSolo {
		return nil, fmt.Errorf("-assert-isolation needs -compare-solo")
	}
	if o.compare == "" && !o.list && o.scenario == "" {
		return nil, fmt.Errorf("one of -scenario, -list or -compare is required")
	}
	return o, nil
}

// buildRunner resolves the scenario and applies the command-line overrides
// — the spec-grammar flags land in the exact ServerSpec fields the runner
// feeds through pipeline.Build/sched.Build.
func buildRunner(o *benchOptions) (*loadgen.Runner, error) {
	sc, err := loadgen.ByName(o.scenario)
	if err != nil {
		return nil, err
	}
	if o.workers > 0 {
		sc.Workers = o.workers
	}
	if o.rounds > 0 {
		sc.Rounds = o.rounds
	}
	if o.arch != "" {
		sc.Server.Arch = o.arch
	}
	if o.lr > 0 {
		sc.Server.LearningRate = o.lr
	}
	if o.k > 0 {
		sc.Server.K = o.k
	}
	if o.stages != "" {
		sc.Server.Stages = o.stages
	}
	if o.agg != "" {
		sc.Server.Aggregator = o.agg
	}
	if o.admission != "" {
		sc.Server.Admission = o.admission
	}
	if o.compress != "" {
		// "dense" turns compression off outright — the uncompressed twin the
		// uplink-bytes headline is measured against.
		if o.compress == "dense" {
			sc.CompressSpec = ""
		} else {
			sc.CompressSpec = o.compress
		}
	}
	if o.codec != "" {
		sc.Codec = o.codec
	}
	return &loadgen.Runner{
		Scenario:  sc,
		Seed:      o.seed,
		Transport: loadgen.Transport(o.transport),
	}, nil
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	o, err := parseBench(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h: usage already printed, a successful exit
		}
		fmt.Fprintln(stderr, err)
		return 2
	}

	if o.list {
		for _, name := range loadgen.Names() {
			sc, _ := loadgen.ByName(name)
			fmt.Fprintf(stdout, "%-16s %s\n", name, sc.Description)
		}
		return 0
	}

	if o.compare != "" {
		return runCompare(o, stdout, stderr)
	}

	runner, err := buildRunner(o)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// With -out - stdout carries the JSON alone; summaries go to stderr.
	info := stdout
	if o.out == "-" {
		info = stderr
	}
	res, err := runner.Run(ctx)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if o.compareTransport != "" {
		// The twin rides the identical scenario and seed over the other
		// transport, so every difference in the embedded comparison is the
		// transport's doing, not the workload's.
		twinRunner := *runner
		twinRunner.Transport = loadgen.Transport(o.compareTransport)
		twin, err := twinRunner.Run(ctx)
		if err != nil {
			fmt.Fprintf(stderr, "twin transport %s: %v\n", o.compareTransport, err)
			return 1
		}
		tc, err := loadgen.CompareTransports(res, twin)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		res.TransportComparison = tc
		fmt.Fprintf(info, "%s vs %s: round p95 %+.1f%%, %.3g vs %.3g conns/worker, accuracy delta %+.4f\n",
			o.transport, o.compareTransport, -100*tc.RoundP95Improvement,
			connsPerWorker(res), tc.ConnsPerWorker, tc.AccuracyDelta)
	}

	if o.compareSolo {
		if len(res.Tenants) == 0 {
			fmt.Fprintf(stderr, "-compare-solo: scenario %s is not multi-tenant\n", o.scenario)
			return 1
		}
		specOf := map[string]loadgen.TenantSpec{}
		for _, ts := range res.Config.Tenants {
			specOf[ts.Name] = ts
		}
		for _, tr := range res.Tenants {
			// The solo twin runs the tenant's exact derived scenario and
			// seed with no tenant layer and no neighbors — the isolation
			// baseline every difference is measured against.
			sub, seed := loadgen.TenantSubScenario(res.Config, specOf[tr.Name], res.Seed)
			twin := &loadgen.Runner{Scenario: sub, Seed: seed, Transport: loadgen.TransportInProc}
			solo, err := twin.Run(ctx)
			if err != nil {
				fmt.Fprintf(stderr, "solo twin for tenant %s: %v\n", tr.Name, err)
				return 1
			}
			tc, err := loadgen.CompareTenantSolo(tr, solo)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			tr.Solo = tc
			fmt.Fprintf(info, "tenant %s vs solo: accuracy delta %+.4f, identical=%v\n",
				tr.Name, tc.AccuracyDelta, tc.Identical)
		}
	}

	out := o.out
	if out == "" {
		out = fmt.Sprintf("BENCH_%s.json", o.scenario)
	}
	if out == "-" {
		b, err := res.MarshalCanonical()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		_, _ = stdout.Write(b)
	} else {
		if err := res.WriteFile(out); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s: %d pushes, %.3f pushes/s, final accuracy %.3f, %d protocol errors → %s\n",
			o.scenario, res.Counts.Pushes, res.ThroughputPerSec, res.FinalAccuracy,
			res.Counts.ProtocolErrors, out)
	}

	failed := false
	if o.minAccuracy > 0 && res.FinalAccuracy < o.minAccuracy {
		fmt.Fprintf(stderr, "ASSERT FAIL: final accuracy %.4f < required %.4f\n", res.FinalAccuracy, o.minAccuracy)
		failed = true
	}
	if o.maxProtocolErrors >= 0 && res.Counts.ProtocolErrors > o.maxProtocolErrors {
		fmt.Fprintf(stderr, "ASSERT FAIL: %d protocol errors > allowed %d (samples: %v)\n",
			res.Counts.ProtocolErrors, o.maxProtocolErrors, res.Counts.ErrorSamples)
		failed = true
	}
	if o.assertWin {
		if err := loadgen.GateTransportWin(res); err != nil {
			fmt.Fprintf(stderr, "ASSERT FAIL: %v\n", err)
			failed = true
		}
	}
	if o.assertIsolation {
		if err := loadgen.GateTenantIsolation(res); err != nil {
			fmt.Fprintf(stderr, "ASSERT FAIL: %v\n", err)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// connsPerWorker digs the run's own connection count out of the result (0
// for the in-process transport, which opens none).
func connsPerWorker(res *loadgen.Result) float64 {
	if res.TransportStats == nil {
		return 0
	}
	return res.TransportStats.ConnsPerWorker
}

func runCompare(o *benchOptions, stdout, stderr io.Writer) int {
	baseline, err := os.ReadFile(o.compare)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	current, err := os.ReadFile(o.against)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if diff := loadgen.Diff(baseline, current); diff != "" {
		fmt.Fprintf(stderr, "NOT IDENTICAL: %s does not replay %s; first difference at %s\n",
			o.against, o.compare, diff)
		return 1
	}
	fmt.Fprintf(stdout, "identical: %s replays %s byte for byte\n", o.against, o.compare)
	return 0
}
