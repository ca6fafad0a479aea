package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/ci_values.json from this tree's CI-scale runs")

const goldenPath = "testdata/ci_values.json"

// ciReports runs each experiment at most once per test binary: the golden
// test and the per-figure assertions read the same report.
var ciReports sync.Map // id → func() (*Report, error)

// quick holds the experiments that train no model and finish in under a
// second at ScaleCI. Under -race only these run, concurrently (the golden
// subtests are parallel), which checks that experiments share no mutable
// state; the training ones take 4–40 s each, about ten times that under
// -race, and `go test ./internal/experiments` runs them all.
var quick = map[string]bool{
	"fig4": true, "fig5": true, "fig7": true, "fig12": true, "fig13": true,
	"fig14": true, "table2": true, "energy": true,
}

func ciReport(t *testing.T, id string) *Report {
	t.Helper()
	if raceEnabled && !quick[id] {
		t.Skipf("%s trains a model: skipped under -race, where it would have nothing to race — "+
			"TestExperimentsStartNoGoroutines (internal/node) proves the experiments start no goroutine; "+
			"go test ./internal/experiments runs it", id)
	}
	run, _ := ciReports.LoadOrStore(id, sync.OnceValues(func() (*Report, error) { return Run(id, ScaleCI) }))
	rep, err := run.(func() (*Report, error))()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestGoldenCIValues pins every headline number of every experiment at the
// CI scale, bit for bit: the experiments are seeded and single-threaded, so
// a changed value is a changed training loop (or a deliberate change to an
// experiment — rerun with -update and say which in CHANGES.md). README's
// fidelity table is written from the same file.
func TestGoldenCIValues(t *testing.T) {
	if *update {
		got := map[string]map[string]float64{}
		for _, id := range All() {
			got[id] = ciReport(t, id).Values
		}
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]float64
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(All()) {
		t.Errorf("%s pins %d experiments, the registry has %d", goldenPath, len(want), len(All()))
	}
	for _, id := range All() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			if got := ciReport(t, id).Values; !reflect.DeepEqual(got, want[id]) {
				t.Errorf("values moved:\n got %v\nwant %v", got, want[id])
			}
		})
	}
}

// fidelity is README's "what the paper claims, what we measure" table: one
// row per experiment, the numbers read from testdata/ci_values.json by key.
var fidelity = []struct {
	id, claim string
	keys      []string
}{
	{"fig3", "weak (batch-1) workers cancel the benefit of distributed learning", []string{"1 strong", "10 strong", "10 strong + 2 weak", "10 strong + 4 weak"}},
	{"fig4", "computation time per sample is device-specific and rises as the device heats", []string{"Galaxy S7-cool", "Galaxy S7-hot", "Honor 10-cool", "Honor 10-hot"}},
	{"fig5", "the exponential dampening meets the inverse one at τ_thres/2", []string{"intersection"}},
	{"fig6", "Online FL beats Standard FL on hashtag recommendation (paper: 2.3×)", []string{"online", "standard", "boost"}},
	{"fig7", "the staleness of the tweet workload is long-tailed", []string{"mean", "p99", "max"}},
	{"fig8", "AdaSGD learns faster than DynSGD under D1 and D2 staleness; SSGD is the staleness-free ideal", []string{"ssgd", "ada-D1", "dyn-D1", "ada-D2", "dyn-D2", "fedavg"}},
	{"fig9", "the similarity boost recovers a class held only by stragglers (τ = 48)", []string{"ada-class0", "dyn-class0"}},
	{"fig10", "staleness awareness also wins on IID data; FedAvg diverges on the CIFAR-style task", []string{"ada-tiny-MNIST (IID)", "dyn-tiny-MNIST (IID)", "ada-tiny-CIFAR (IID)", "dyn-tiny-CIFAR (IID)", "fed-tiny-CIFAR (IID)"}},
	{"fig11", "differential privacy costs accuracy as ε shrinks; AdaSGD stays ahead of DynSGD", []string{"ada-eps0.00", "dyn-eps0.00", "ada-eps13.66", "dyn-eps13.66", "ada-eps1.75", "dyn-eps1.75"}},
	{"fig12", "I-Prof misses a computation-time SLO by less than MAUI at p90 (paper: 3.6×)", []string{"iprof-p90", "maui-p90", "ratio-p90"}},
	{"fig13", "I-Prof misses an energy SLO by less than MAUI at p90 (paper: 19×)", []string{"iprof-p90", "maui-p90", "ratio-p90"}},
	{"fig14", "FLeet's batch sizing spends energy comparable to CALOREE's allocation", []string{"fleet-Galaxy S7", "caloree-Galaxy S7", "fleet-Xperia E3", "caloree-Xperia E3"}},
	{"fig15", "pruning the smallest batches is nearly free (paper: ≤ 39 % pruned costs ≤ 2.2 %); pruning by similarity costs more", []string{"base", "size40", "size40-pruned", "sim40", "sim40-pruned", "sim80", "sim80-pruned"}},
	{"table2", "CALOREE's deadline error (%) escalates on devices it was not trained on", []string{"Galaxy S7", "Galaxy S8", "Honor 9", "Honor 10"}},
	{"energy", "Online FL costs a phone a negligible share of its battery per day (paper: 0.036 %)", []string{"mean-mwh", "pct-battery"}},
	{"ablation-dampening", "dampening functions under D2 (mean of 3 seeds)", []string{"exponential", "inverse", "constant", "drop"}},
	{"ablation-similarity", "without the similarity boost the straggler class is lost", []string{"class0-with", "class0-without"}},
	{"ablation-spct", "underestimating s % slows learning", []string{"s50.0", "s90.0", "s99.7", "s100.0"}},
	{"ablation-k", "at a fixed gradient budget a larger K means fewer, coarser updates", []string{"k1", "k5", "k10"}},
	{"trace-staleness", "the ordering holds when staleness emerges from device and network latency", []string{"ada", "dyn", "fed", "mean-staleness"}},
	{"byzantine", "robust window aggregators hold under 20 % sign-flipping workers; the mean collapses", []string{"clean-Mean", "attacked-Mean", "attacked-CoordinateMedian", "attacked-TrimmedMean(1)", "attacked-Krum(f=1)"}},
}

// TestReadmeFidelityTable keeps README's table equal to what the golden file
// says; -update rewrites it between its two marker comments.
func TestReadmeFidelityTable(t *testing.T) {
	const readme, begin, end = "../../README.md", "<!-- fidelity:begin -->\n", "<!-- fidelity:end -->"
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]map[string]float64
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	var table strings.Builder
	table.WriteString("| experiment | the paper's claim | CI-scale result |\n|---|---|---|\n")
	for _, row := range fidelity {
		var nums []string
		for _, k := range row.keys {
			v, ok := golden[row.id][k]
			if !ok {
				t.Fatalf("%s has no value %q", row.id, k)
			}
			nums = append(nums, fmt.Sprintf("%s %.3g", k, v))
		}
		fmt.Fprintf(&table, "| `%s` | %s | %s |\n", row.id, row.claim, strings.Join(nums, ", "))
	}
	if len(fidelity) != len(golden) {
		t.Errorf("the table has %d rows, the golden file %d experiments", len(fidelity), len(golden))
	}
	doc, err := os.ReadFile(readme)
	if err != nil {
		t.Fatal(err)
	}
	from := strings.Index(string(doc), begin)
	to := strings.Index(string(doc), end)
	if from < 0 || to < from {
		t.Fatalf("%s lacks the %q … %q block", readme, strings.TrimSpace(begin), end)
	}
	from += len(begin)
	if got := string(doc[from:to]); got != table.String() {
		if !*update {
			t.Fatalf("README's fidelity table is stale (rerun with -update):\n%s", table.String())
		}
		if err := os.WriteFile(readme, []byte(string(doc[:from])+table.String()+string(doc[to:])), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
