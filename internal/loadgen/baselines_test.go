package loadgen

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baselineDir = "../../bench/baselines"

// decodeStrict decodes a rendered result, refusing any key no Result field
// carries.
func decodeStrict(b []byte) (*Result, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var r Result
	if err := dec.Decode(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// TestEveryScenarioHasBaseline is the CI lint guard for the replay
// contract: every built-in scenario must ship a committed baseline for
// cmd/fleet-bench's TestBaselinesReplay to replay — adding a scenario
// without generating bench/baselines/BENCH_<name>.json from its row there
// fails here. The reverse holds too: a baseline whose scenario was removed
// or renamed is stale and must go. And each file must be the canonical
// rendering of a Result — no key a Result does not carry, none missing,
// MarshalCanonical's layout — so a hand-edited or stale-keyed baseline
// fails here without running a scenario.
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
		res, err := decodeStrict(b)
		if err != nil {
			t.Errorf("baseline %s does not decode as a Result: %v", path, err)
			continue
		}
		canonical, err := res.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		if diff := Diff(b, canonical); diff != "" {
			t.Errorf("baseline %s is not the canonical rendering of its Result: first difference at %s", path, diff)
		}
		if res.Scenario != name {
			t.Errorf("baseline %s records scenario %q, want %q", path, res.Scenario, name)
		}
		if res.Seed != 42 {
			t.Errorf("baseline %s ran seed %d; the replay contract is seed 42", path, res.Seed)
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
