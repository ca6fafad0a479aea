package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/ci_values.json from this tree's CI-scale runs")

const goldenPath = "testdata/ci_values.json"

// ciReports runs each experiment at most once per test binary: the golden
// test and the per-figure assertions read the same report.
var ciReports sync.Map // id → func() (*Report, error)

func ciReport(t *testing.T, id string) *Report {
	t.Helper()
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
