package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {0.1, 1},
	} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(p=%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
}

func TestMedianOfReps(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
	in := []float64{9, 2, 7, 4, 5}
	c := overReps(in)
	if c.Median != 5 || c.Min != 2 || c.Max != 9 {
		t.Errorf("overReps = %+v", c)
	}
	if in[0] != 9 || in[4] != 5 {
		t.Errorf("overReps reordered its input: %v", in)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Span: 1, Start: 0, End: 100, Name: "client.push"},
		// Two overlapping children cover [10, 60) together, a third [70, 80);
		// one child runs past its parent and is clipped at 100.
		{Span: 2, Parent: 1, Start: 10, End: 50},
		{Span: 3, Parent: 1, Start: 40, End: 60},
		{Span: 4, Parent: 1, Start: 70, End: 80},
		{Span: 5, Parent: 1, Start: 95, End: 120},
		{Span: 6, Parent: 2, Start: 20, End: 30},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10 - 5, 2: 30, 3: 20, 4: 10, 5: 25, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestSummarizeSplitsClientCodecService(t *testing.T) {
	us := func(v int64) int64 { return v * 1000 }
	spans := []span{
		{Trace: 1, Span: 1, Name: "client.pull", Node: "client", Start: us(0), End: us(100)},
		{Trace: 1, Span: 2, Parent: 1, Name: "client.encode", Node: "client", Start: us(0), End: us(10)},
		{Trace: 1, Span: 3, Parent: 1, Name: "service.pull", Node: "edge", Start: us(20), End: us(60)},
		// The root's span is the edge's child: it must not count twice.
		{Trace: 1, Span: 4, Parent: 3, Name: "service.pull", Node: "root", Start: us(30), End: us(40)},
		{Trace: 1, Span: 5, Parent: 1, Name: "client.decode", Node: "client", Start: us(80), End: us(100)},
		{Trace: 1, Span: 6, Name: "client.push", Node: "client", Start: us(100), End: us(150)},
		{Trace: 1, Span: 7, Parent: 6, Name: "service.push", Node: "edge", Start: us(110), End: us(120)},
		// An incomplete round is ignored.
		{Trace: 2, Span: 8, Name: "client.pull", Node: "client", Start: us(150), End: us(160)},
	}
	sum := summarize(spans)
	if sum.rounds != 1 {
		t.Fatalf("rounds = %d, want 1", sum.rounds)
	}
	if sum.clientUs != 150 || sum.codecUs != 30 || sum.serviceUs != 50 || sum.residualUs != 70 {
		t.Errorf("summary = %+v", sum)
	}
	if got := sum.selfUs["edge/service.pull"]; got != 30 {
		t.Errorf("edge self time = %v, want 30", got)
	}
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSONIsTheCatalogue pins the committed BENCHMARK.json to the
// catalogue it is generated from and to the limits of the driver's contract.
func TestBenchmarkJSONIsTheCatalogue(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `go run -C bench/perf . -catalogue json > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRe.MatchString(name) {
			t.Errorf("name %q breaks the contract's pattern", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name)
		if !unitRe.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range perLayer {
		check(d.Name)
		if !unitRe.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(got))
	}
}

// TestReadmeCarriesTheCatalogue keeps the README's tables in step with the
// catalogue they are generated from.
func TestReadmeCarriesTheCatalogue(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), "<!-- catalogue:begin -->\n"+catalogueMarkdown()+"<!-- catalogue:end -->") {
		t.Error("README.md's catalogue is stale: paste `go run -C bench/perf . -catalogue md` between the catalogue markers")
	}
}

// TestSmokeAllWorkloads boots all four workloads for 200 ms each with the
// verify stage on, the layer timings at a token budget and the traced run,
// and checks that every catalogue metric is actually emitted. The workloads
// run as parallel subtests: the checks are counts and presence, not timings.
func TestSmokeAllWorkloads(t *testing.T) {
	results := make([]*result, len(workloads))
	t.Run("workloads", func(t *testing.T) {
		for i, w := range workloads {
			t.Run(w.name, func(t *testing.T) {
				t.Parallel()
				results[i] = run(config{
					workloads: []*workload{w}, seed: 42, reps: 1,
					rep: 200 * time.Millisecond, warm: 50 * time.Millisecond,
					layers: true, traced: true, layerBudget: 2 * time.Millisecond,
					tmp: t.TempDir(),
				})[0]
			})
		}
	})
	emitted := map[string]int{}
	for _, res := range results {
		if res == nil {
			t.Fatal("a workload produced no result")
		}
		for _, p := range res.Problems {
			// The design self-checks compare percentiles that need a full
			// rep's samples; 200 ms (a handful of windows) cannot carry them.
			if !strings.Contains(p, "self-check:") {
				t.Errorf("problem: %s", p)
			}
		}
		if res.Attempted < 1 {
			t.Errorf("%s: nothing attempted", res.Name)
		}
		for _, d := range endToEnd {
			if v := res.Metrics[d.Name].Median; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", res.Name, d.Name, v)
			}
		}
		for name := range res.Metrics {
			emitted[name]++
		}

		// The driver's result line carries exactly the contract's keys.
		var line struct {
			Correct   *bool                      `json:"correct"`
			Attempted *int                       `json:"attempted"`
			Failed    *int                       `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(driverLine(res, perLayer)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("%s: result line: %v", res.Name, err)
		}
		if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: result line misses keys or metrics: %+v", res.Name, line)
		}
	}
	// Layer timings and trace metrics exist on every workload; counts at
	// least where their layer is deployed (aggtree.* only behind an edge).
	for _, d := range perLayer {
		want := len(workloads)
		switch d.Name {
		case "aggtree.upstream_pushes", "aggtree.lost_windows":
			want = 1
		case "stream.dials":
			want = 2
		}
		if emitted[d.Name] < want {
			t.Errorf("per-layer metric %s emitted on %d workloads, want >= %d", d.Name, emitted[d.Name], want)
		}
	}
}
