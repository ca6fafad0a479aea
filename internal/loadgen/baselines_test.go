package loadgen

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baselineDir = "../../bench/baselines"

// TestEveryScenarioHasBaseline is the CI lint guard for the regression
// gate: every built-in scenario must ship a committed baseline the
// scenario matrix can compare against — adding a scenario without running
// `fleet-bench -scenario <name> -seed 42 -out bench/baselines/BENCH_<name>.json`
// fails here instead of silently skipping the gate. The reverse holds too:
// a baseline whose scenario was removed or renamed is stale and must go.
func TestEveryScenarioHasBaseline(t *testing.T) {
	registered := map[string]bool{}
	for _, name := range Names() {
		registered[name] = true
		path := filepath.Join(baselineDir, "BENCH_"+name+".json")
		b, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("scenario %q has no committed baseline: %v", name, err)
			continue
		}
		var res Result
		if err := json.Unmarshal(b, &res); err != nil {
			t.Errorf("baseline for %q does not parse as a Result: %v", name, err)
			continue
		}
		if res.Scenario != name {
			t.Errorf("baseline %s records scenario %q, want %q", path, res.Scenario, name)
		}
		if res.Seed != 42 {
			t.Errorf("baseline %s ran seed %d; the scenario matrix compares seed-42 runs", path, res.Seed)
		}
		if res.Counts.ProtocolErrors != 0 {
			t.Errorf("baseline %s was committed with %d protocol errors", path, res.Counts.ProtocolErrors)
		}
	}

	entries, err := os.ReadDir(baselineDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := strings.TrimSuffix(strings.TrimPrefix(e.Name(), "BENCH_"), ".json")
		if name == e.Name() {
			t.Errorf("stray file %s in %s: baselines are named BENCH_<scenario>.json", e.Name(), baselineDir)
			continue
		}
		if !registered[name] {
			t.Errorf("stale baseline %s: no scenario %q is built in", e.Name(), name)
		}
	}
}
