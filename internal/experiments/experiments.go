// Package experiments implements one driver per table and figure of the
// paper's evaluation (§3), plus the ablations called out in DESIGN.md. Each
// driver returns a Report with the same rows/series the paper plots, at two
// scales: ScaleCI (seconds, used by tests and testing.B benchmarks) and
// ScaleFull (paper-sized, used by cmd/fleet-experiments).
//
// Every federated-learning figure (3, 8–11, 15, the ablations,
// trace-staleness, byzantine) trains on a server.Server through
// internal/core's driver: the staleness gate, the update pipeline, label
// absorption, the K-window and the model update are the code a worker talks
// to. testdata/ci_values.json pins every Report.Values at ScaleCI.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Scale selects experiment sizing.
type Scale int

// Experiment scales.
const (
	// ScaleCI finishes in seconds; trends hold, absolute numbers are small.
	ScaleCI Scale = iota + 1
	// ScaleFull approximates the paper's workload sizes.
	ScaleFull
)

// Report is the output of one experiment.
type Report struct {
	// ID is the experiment id (e.g. "fig8").
	ID string
	// Title describes what the experiment reproduces.
	Title string
	// Lines are the formatted result rows (one per table row / curve
	// summary).
	Lines []string
	// Values holds machine-readable headline numbers keyed by metric name.
	Values map[string]float64
}

func (r *Report) addLine(format string, args ...interface{}) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Report) setValue(key string, v float64) {
	if r.Values == nil {
		r.Values = map[string]float64{}
	}
	r.Values[key] = v
}

// String renders the report.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", r.ID, r.Title)
	for _, l := range r.Lines {
		sb.WriteString("  ")
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// runner is one registered experiment.
type runner struct {
	title string
	fn    func(Scale) *Report
}

// registry maps experiment ids to drivers. Populated in registry.go.
var registry = map[string]runner{}

func register(id, title string, fn func(Scale) *Report) {
	registry[id] = runner{title: title, fn: fn}
}

// Run executes one experiment by id.
func Run(id string, scale Scale) (*Report, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)",
			id, strings.Join(All(), ", "))
	}
	rep := r.fn(scale)
	rep.ID = id
	rep.Title = r.title
	return rep, nil
}

// All lists the registered experiment ids, sorted.
func All() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
