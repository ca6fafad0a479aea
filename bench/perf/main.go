// Command perf is FLeet's real-clock round-trip benchmark: it boots real
// node.Runtimes from node.Specs over loopback, drives each with one
// closed-loop client replaying pre-generated messages, verifies the outputs,
// and prints every metric of the catalogue (catalogue.go) by name and unit.
//
//	go run -C bench/perf .                      all four workloads, layers, traced run
//	go run -C bench/perf . -aa                  the end-to-end set twice, compared to the bounds
//	bash bench/perf/run.sh --workload inproc-dense --seed 7 --seconds 20 --trace 0
//
// The last form is the driver contract of BENCHMARK.json: one workload, and
// one JSON object as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is one invocation's plan.
type config struct {
	workloads   []*workload
	seed        int64
	reps        int
	rep, warm   time.Duration
	layers      bool
	traced      bool
	layerBudget time.Duration
	spanFile    string
	tmp         string
}

// result is everything one invocation learned about one workload.
type result struct {
	Name string `json:"name"`
	// Metrics holds every measured metric by catalogue name. Rep metrics
	// carry median/min/max over reps; layer timings and trace metrics are
	// single values (min = max = median).
	Metrics map[string]cell `json:"metrics"`
	// PerRep keeps every untraced rep's value of every rep metric, in
	// the order the reps ran.
	PerRep map[string][]float64 `json:"per_rep,omitempty"`
	// TraceSelfUs is the traced run's mean self time per round of each
	// (node, span name): span minus the part its children cover.
	TraceSelfUs map[string]float64 `json:"trace_self_us,omitempty"`
	// Attempted counts service calls; every failed call or check is one
	// of Problems.
	Attempted int      `json:"attempted"`
	Problems  []string `json:"problems,omitempty"`
}

func (r *result) set(name string, v float64) { r.Metrics[name] = cell{Median: v, Min: v, Max: v} }

func (r *result) problem(msg string) { r.Problems = append(r.Problems, msg) }

// run executes the plan: inputs, path equivalence, the untraced reps
// (interleaved round-robin across workloads so a noisy minute on a shared
// host hits all of them), then layer timings and the traced run.
func run(cfg config) []*result {
	probe := newHostProbe()
	results := make([]*result, len(cfg.workloads))
	ins := make([]*inputs, len(cfg.workloads))
	perRep := make([]map[string][]float64, len(cfg.workloads))
	for i, w := range cfg.workloads {
		results[i] = &result{Name: w.name, Metrics: map[string]cell{}}
		perRep[i] = map[string][]float64{}
		in, err := genInputs(w, cfg.seed)
		if err != nil {
			results[i].problem(fmt.Sprintf("%s: inputs: %v", w.name, err))
			results[i].Attempted++
			continue
		}
		ins[i] = in
		if w.transport == "http" || w.transport == "stream" {
			attempted, problems := checkPathEquivalence(w, in)
			results[i].Attempted += attempted
			for _, p := range problems {
				results[i].problem(p)
			}
		}
	}
	for rep := 0; rep < cfg.reps; rep++ {
		for i, w := range cfg.workloads {
			if ins[i] == nil {
				continue
			}
			rr := runRep(w, ins[i], cfg.warm, cfg.rep, nil, probe)
			results[i].Attempted += rr.attempted
			results[i].Problems = append(results[i].Problems, rr.problems...)
			for name, v := range rr.metrics {
				perRep[i][name] = append(perRep[i][name], v)
			}
		}
	}
	for i, w := range cfg.workloads {
		res := results[i]
		res.PerRep = perRep[i]
		for name, vs := range perRep[i] {
			res.Metrics[name] = overReps(vs)
		}
		if ins[i] == nil {
			continue
		}
		selfCheck(w, res)
		if cfg.layers {
			layers, err := runLayers(w, ins[i], cfg.layerBudget, cfg.tmp)
			if err != nil {
				res.problem(fmt.Sprintf("%s: layer timings: %v", w.name, err))
			}
			for name, v := range layers {
				res.set(name, v)
			}
		}
		if cfg.traced {
			traceRun(cfg, w, ins[i], res, probe)
		}
	}
	return results
}

// selfCheck asserts the workload design is really present in the numbers:
// the bimodal percentiles and the wire-free twin.
func selfCheck(w *workload, res *result) {
	ratio := func(hi, lo string) float64 { return res.Metrics[hi].Median / res.Metrics[lo].Median }
	if w.k > 1 && (w.transport == "stream" || w.transport == "tree") {
		if r := ratio("push_p90_us", "push_p50_us"); !(r >= 3) {
			res.problem(fmt.Sprintf("%s: self-check: push_p90_us is %.2fx push_p50_us, want >= 3x (window-closing pushes at p90)", w.name, r))
		}
	}
	if w.coldEvery > 0 {
		if r := ratio("pull_p90_us", "pull_p50_us"); !(r >= 3) {
			res.problem(fmt.Sprintf("%s: self-check: pull_p90_us is %.2fx pull_p50_us, want >= 3x (cold full pulls at p90)", w.name, r))
		}
	}
	if wire := res.Metrics["wire_bytes_per_round"].Median; (w.transport == "none") != (wire == 0) {
		res.problem(fmt.Sprintf("%s: self-check: wire_bytes_per_round = %.0f over transport %q", w.name, wire, w.transport))
	}
}

// traceRun is the separate traced rep of one workload. End-to-end metrics
// never come from it; it yields the trace.* metrics and the self times.
func traceRun(cfg config, w *workload, in *inputs, res *result, probe *hostProbe) {
	rr := runRep(w, in, cfg.warm, cfg.rep, newTracer(), probe)
	res.Attempted += rr.attempted
	res.Problems = append(res.Problems, rr.problems...)
	sum := summarize(rr.spans)
	if sum.rounds == 0 {
		res.problem(fmt.Sprintf("%s: traced run recorded no complete round", w.name))
		return
	}
	res.TraceSelfUs = sum.selfUs
	res.set("trace.client_codec_us", sum.codecUs)
	res.set("trace.service_us", sum.serviceUs)
	res.set("trace.wire_residual_us", sum.residualUs)

	// What the isolated timings explain of the residual: two transport
	// floors and the server's half of the codec work (request and push
	// decode, task and ack encode).
	m := func(name string) float64 { return res.Metrics[name].Median }
	explained := 0.0
	switch w.transport {
	case "http":
		explained = 2 * m("worker.http_floor_us")
	case "stream", "tree":
		explained = 2 * m("stream.floor_us")
	}
	if w.transport != "none" {
		explained += m("protocol.request_decode_us") + m("protocol.task_encode_us") +
			m("protocol.push_decode_us") + m("protocol.ack_encode_us")
	}
	res.set("trace.unattributed_pct", 100*(sum.residualUs-explained)/sum.clientUs)
	if untraced := m("rounds_per_s"); untraced > 0 {
		res.set("trace.overhead_pct", 100*(untraced-rr.metrics["rounds_per_s"])/untraced)
	}
	if cfg.spanFile != "" {
		if err := writeSpans(cfg.spanFile, w.name, rr.spans); err != nil {
			res.problem(fmt.Sprintf("%s: writing spans: %v", w.name, err))
		}
	}
}

// header records the conditions of the run.
type header struct {
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	Seed       int64   `json:"seed"`
	Clients    int     `json:"clients"`
	Reps       int     `json:"reps"`
	RepSeconds float64 `json:"rep_seconds"`
	WarmupS    float64 `json:"warmup_seconds"`
	Loop       string  `json:"loop"`
	Link       string  `json:"link"`
}

func newHeader(cfg config) header {
	h := header{
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: "unknown",
		GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: os.Getenv("GOGC"),
		Seed: cfg.seed, Clients: 1, Reps: cfg.reps,
		RepSeconds: cfg.rep.Seconds(), WarmupS: cfg.warm.Seconds(),
		Loop: "closed, 1 client, 1 connection/session per workload", Link: "loopback",
	}
	if h.GOGC == "" {
		h.GOGC = "100 (default)"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// report prints every metric by name with its unit.
func report(h header, results []*result) {
	fmt.Printf("fleet bench/perf: nproc=%d go=%s commit=%s GOMAXPROCS=%d GOGC=%s seed=%d clients=%d reps=%d x %.2fs (+%.2fs warm-up), %s over %s\n",
		h.NProc, h.GoVersion, h.Commit, h.GOMAXPROCS, h.GOGC, h.Seed, h.Clients, h.Reps, h.RepSeconds, h.WarmupS, h.Loop, h.Link)
	for _, res := range results {
		fmt.Printf("\n== %s ==\n", res.Name)
		row := func(d metricDef) {
			c, ok := res.Metrics[d.Name]
			if !ok {
				return
			}
			if c.Min == c.Max {
				fmt.Printf("  %-32s %14.3f %-6s\n", d.Name, c.Median, d.Unit)
				return
			}
			fmt.Printf("  %-32s %14.3f %-6s [%.3f .. %.3f]\n", d.Name, c.Median, d.Unit, c.Min, c.Max)
		}
		fmt.Printf(" end to end (median over reps [min .. max]; timings x host factor %.3f):\n", res.Metrics["runtime.host_factor"].Median)
		for _, d := range endToEnd {
			row(d)
		}
		fmt.Println(" per layer:")
		for _, d := range perLayer {
			row(d)
		}
		if len(res.TraceSelfUs) > 0 {
			fmt.Println(" traced run, self time per round (span - children), us:")
			for _, k := range sortedKeys(res.TraceSelfUs) {
				fmt.Printf("  %-32s %14.3f\n", k, res.TraceSelfUs[k])
			}
		}
		fmt.Printf(" calls attempted %d, failed calls and checks %d\n", res.Attempted, len(res.Problems))
		for _, p := range res.Problems {
			fmt.Printf(" PROBLEM %s\n", p)
		}
	}
}

// compareAA prints every (end-to-end metric, workload) cell's relative
// difference between two runs of the same code beside its bound and
// reports whether all of them agree within it.
func compareAA(a, b []*result) (spreads map[string]map[string]float64, ok bool) {
	ok = true
	spreads = map[string]map[string]float64{}
	fmt.Printf("\n== A/A: two runs of the same code ==\n  %-22s %-20s %12s %12s %8s %6s\n", "workload", "metric", "A", "B", "diff", "bound")
	for i := range a {
		spreads[a[i].Name] = map[string]float64{}
		for _, d := range endToEnd {
			va, vb := a[i].Metrics[d.Name].Median, b[i].Metrics[d.Name].Median
			diff := math.Abs(vb-va) / va
			spreads[a[i].Name][d.Name] = diff
			verdict := ""
			if !(diff <= d.Bound) {
				verdict, ok = "  BREACH", false
			}
			fmt.Printf("  %-22s %-20s %12.3f %12.3f %7.1f%% %5.0f%%%s\n", a[i].Name, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
	}
	return spreads, ok
}

// driverLine is the contract's result object: the last line of stdout.
func driverLine(res *result, defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(res.Problems) == 0, Attempted: res.Attempted, Failed: len(res.Problems), Metrics: map[string]value{}}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	for _, d := range defs {
		// A metric with no sample on this workload (an aggtree count on a
		// flat one) reads 0.
		out.Metrics[d.Name] = value{res.Metrics[d.Name].Median, d.Unit}
	}
	line, _ := json.Marshal(out)
	return string(line)
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and end with the driver's JSON line (default: all four)")
		seed         = flag.Int64("seed", 42, "seed of the generated messages")
		seconds      = flag.Float64("seconds", 0, "measured seconds per workload, shared by the 5 reps (default 25, or BENCHMARK.json's run_seconds with -workload)")
		trace        = flag.String("trace", "", `"0": end-to-end only; "1": layer timings and the traced run too; a path: also write the spans there (default "1" without -workload, "0" with)`)
		aa           = flag.Bool("aa", false, "run the end-to-end set twice and compare every cell to its bound")
		out          = flag.String("out", "", "write the full results as JSON to this file")
		tmp          = flag.String("tmp", "", "scratch directory for checkpoint files (default: the system's)")
		catalogue    = flag.String("catalogue", "", `print the catalogue and exit: "json" (BENCHMARK.json) or "md" (README tables)`)
	)
	flag.Parse()

	switch *catalogue {
	case "":
	case "json":
		doc, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(doc)
		return
	case "md":
		fmt.Print(catalogueMarkdown())
		return
	default:
		fatal(fmt.Errorf("unknown -catalogue %q", *catalogue))
	}

	cfg := config{workloads: workloads, seed: *seed, reps: defaultReps, layerBudget: 250 * time.Millisecond}
	driver := *workloadName != ""
	if driver {
		w := workloadByName(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		cfg.workloads = []*workload{w}
	}
	if *trace == "" {
		*trace = "1"
		if driver || *aa {
			*trace = "0"
		}
	}
	if *trace != "0" {
		cfg.layers, cfg.traced = true, true
		if *trace != "1" {
			cfg.spanFile = *trace
		}
	}
	if *seconds <= 0 {
		*seconds = 25
		if driver {
			*seconds = runSeconds
		}
	}
	cfg.rep = time.Duration(*seconds / float64(cfg.reps) * float64(time.Second))
	if driver && cfg.traced {
		// One driver run has one run's time: a single untraced rep (the
		// base of trace.overhead_pct) beside the traced one and the layers.
		cfg.reps = 1
	}
	if cfg.warm = warmup; cfg.warm > cfg.rep/4 {
		cfg.warm = cfg.rep / 4
	}
	dir, err := os.MkdirTemp(*tmp, "fleet-perf-")
	if err != nil {
		fatal(err)
	}
	cfg.tmp = dir
	defer os.RemoveAll(dir)

	if cfg.spanFile != "" {
		// Each workload's traced run appends its spans.
		if err := os.WriteFile(cfg.spanFile, nil, 0o644); err != nil {
			fatal(err)
		}
	}
	h := newHeader(cfg)
	results := run(cfg)
	report(h, results)
	doc := map[string]interface{}{"header": h, "claim": nil, "workloads": results}
	clean := true
	if *aa {
		second := run(cfg)
		report(h, second)
		spreads, agree := compareAA(results, second)
		doc["aa_second"], doc["aa_relative_diff"] = second, spreads
		clean = agree
		results = append(results, second...)
	}
	for _, res := range results {
		if len(res.Problems) > 0 {
			clean = false
		}
	}
	if *out != "" {
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			clean = false
		}
	}
	if driver {
		defs := endToEnd
		if cfg.traced {
			defs = perLayer
		}
		fmt.Println(driverLine(results[0], defs))
	}
	if !clean {
		os.RemoveAll(dir)
		os.Exit(1)
	}
}

// sortedKeys returns m's keys in order (stable printing).
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perf:", strings.TrimSpace(err.Error()))
	os.Exit(2)
}
