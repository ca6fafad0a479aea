// fleet-bench runs a named fleet-simulation scenario (internal/loadgen)
// against a live FLeet server configuration and emits a machine-readable
// BENCH_<scenario>.json with throughput, latency percentiles, staleness
// histogram, rejects-by-policy and accuracy-vs-round.
//
// Run a scenario (deterministic virtual time; same seed → identical JSON
// modulo the "wallclock" block):
//
//	fleet-bench -scenario straggler-churn -seed 42
//
// Override fleet size or the server's spec-grammar knobs:
//
//	fleet-bench -scenario byzantine-krum -workers 50 -aggregator 'trimmed(0.2)' -k 10
//
// Gate a fresh run against a committed baseline (the CI regression gate;
// fails on >20% throughput regression, accuracy drops or new protocol
// errors):
//
//	fleet-bench -compare bench/baselines/BENCH_uniform.json -against BENCH_uniform.json
//
// Assert two runs replayed bit-for-bit (the determinism gate):
//
//	fleet-bench -compare a.json -against b.json -identical
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
	maxAccuracyDelta float64

	// Multi-tenant isolation: re-run each tenant's derived sub-scenario
	// solo (no tenant layer, same derived seed) and embed the comparison;
	// optionally gate on the noisy-neighbor contract.
	compareSolo     bool
	assertIsolation bool

	// Compare mode.
	compare         string
	against         string
	identical       bool
	maxRegression   float64
	maxAccuracyDrop float64
	maxUplinkGrowth float64
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
	fs.Float64Var(&o.maxAccuracyDelta, "max-accuracy-delta", 0.01, "with -assert-transport-win: max absolute final-accuracy gap between the transports")
	fs.BoolVar(&o.compareSolo, "compare-solo", false, "multi-tenant scenarios: re-run each tenant's sub-scenario solo (same derived seed, no tenant layer) and embed the isolation comparison")
	fs.BoolVar(&o.assertIsolation, "assert-isolation", false, "with -compare-solo: fail unless unconstrained tenants replay their solo twins bit-for-bit and constrained tenants show attributed throttling with zero protocol errors")
	fs.StringVar(&o.compare, "compare", "", "baseline BENCH_*.json: compare instead of running")
	fs.StringVar(&o.against, "against", "", "current BENCH_*.json compared to -compare")
	fs.BoolVar(&o.identical, "identical", false, "with -compare: require bit-for-bit equality modulo wallclock")
	fs.Float64Var(&o.maxRegression, "max-regression", 0.2, "with -compare: max fractional throughput regression")
	fs.Float64Var(&o.maxAccuracyDrop, "max-accuracy-drop", 0.1, "with -compare: max absolute final-accuracy drop")
	fs.Float64Var(&o.maxUplinkGrowth, "max-uplink-growth", 0.1, "with -compare: max fractional wire-uplink-bytes growth over the baseline (wire transports only)")
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
	if o.assertWin && o.maxAccuracyDelta <= 0 {
		return nil, fmt.Errorf("-max-accuracy-delta must be positive, got %g", o.maxAccuracyDelta)
	}
	if o.lr < 0 {
		return nil, fmt.Errorf("-lr must not be negative, got %g", o.lr)
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
		fmt.Fprintf(stdout, "%s vs %s: round p95 %+.1f%%, %.3g vs %.3g conns/worker, accuracy delta %+.4f\n",
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
			fmt.Fprintf(stdout, "tenant %s vs solo: accuracy delta %+.4f, identical=%v\n",
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
		if err := loadgen.GateTransportWin(res, o.maxAccuracyDelta); err != nil {
			fmt.Fprintf(stderr, "ASSERT FAIL: %v\n", err)
			failed = true
		}
	}
	if o.assertIsolation {
		if err := loadgen.GateTenantIsolation(res, o.maxAccuracyDelta); err != nil {
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
	baseline, err := loadgen.ReadResult(o.compare)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	current, err := loadgen.ReadResult(o.against)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if o.identical {
		same, err := loadgen.Identical(baseline, current)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if !same {
			fmt.Fprintf(stderr, "NOT IDENTICAL: %s and %s differ outside the wallclock block — determinism broken\n",
				o.compare, o.against)
			return 1
		}
		fmt.Fprintf(stdout, "identical: %s replays %s bit-for-bit (modulo wallclock)\n", o.against, o.compare)
		return 0
	}
	rep := loadgen.Compare(baseline, current, loadgen.CompareOptions{
		MaxThroughputRegression: o.maxRegression,
		MaxAccuracyDrop:         o.maxAccuracyDrop,
		MaxUplinkBytesGrowth:    o.maxUplinkGrowth,
	})
	fmt.Fprint(stdout, rep.String())
	if rep.Failed {
		fmt.Fprintf(stderr, "REGRESSION GATE FAILED: %s vs baseline %s\n", o.against, o.compare)
		return 1
	}
	return 0
}
