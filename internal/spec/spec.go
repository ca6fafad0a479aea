// Package spec owns FLeet's configuration grammar: the compact
// "name(arg,…)" spec that names one component, the comma-separated list
// that chains several, and the one lookup every name table goes through.
// The tables are package-level map literals that nothing writes after
// initialisation — pipeline stages and aggregators (internal/pipeline),
// admission policies (internal/sched), compressor links
// (internal/compress), load scenarios (internal/loadgen) and experiments
// (internal/experiments). A custom component is composed by value (as
// pipeline.New and sched.NewChain take them), never registered. Owning
// the grammar here keeps the -stages, -aggregator, -admission and
// -compress syntax identical, and reports an unknown name the same way
// everywhere.
package spec

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Ctor builds one component from its spec's numeric arguments and the
// options the caller supplies.
type Ctor[O, T any] func(args []float64, opts O) (T, error)

// Lookup returns the entry of table named name; an unknown name is an
// error listing the table's names, sorted.
func Lookup[V any](kind string, table map[string]V, name string) (V, error) {
	v, ok := table[name]
	if !ok {
		return v, fmt.Errorf("unknown %s %q (known: %s)", kind, name, strings.Join(Names(table), ", "))
	}
	return v, nil
}

// Names lists a table's names, sorted.
func Names[V any](table map[string]V) []string {
	names := make([]string, 0, len(table))
	for n := range table {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Build parses one "name(args)" spec, looks the name up in table and
// constructs it; a constructor's error is wrapped with the kind and name.
func Build[O, T any](kind string, table map[string]Ctor[O, T], s string, opts O) (T, error) {
	var zero T
	name, args, err := Parse(s)
	if err != nil {
		return zero, err
	}
	ctor, err := Lookup(kind, table, name)
	if err != nil {
		return zero, err
	}
	v, err := ctor(args, opts)
	if err != nil {
		return zero, fmt.Errorf("%s %q: %w", kind, name, err)
	}
	return v, nil
}

// BuildList builds every spec of a comma-separated list, in order. A
// blank list builds none.
func BuildList[O, T any](kind string, table map[string]Ctor[O, T], list string, opts O) ([]T, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var out []T
	for _, s := range Split(list) {
		v, err := Build(kind, table, s, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Parse splits "name" or "name(a,b)" into the name and numeric arguments.
func Parse(spec string) (name string, args []float64, err error) {
	spec = strings.TrimSpace(spec)
	open := strings.IndexByte(spec, '(')
	if open < 0 {
		if spec == "" {
			return "", nil, fmt.Errorf("empty spec")
		}
		return spec, nil, nil
	}
	if !strings.HasSuffix(spec, ")") {
		return "", nil, fmt.Errorf("malformed spec %q: missing ')'", spec)
	}
	name = strings.TrimSpace(spec[:open])
	if name == "" {
		return "", nil, fmt.Errorf("malformed spec %q: missing name", spec)
	}
	inner := strings.TrimSpace(spec[open+1 : len(spec)-1])
	if inner == "" {
		return name, nil, nil
	}
	for _, part := range strings.Split(inner, ",") {
		v, perr := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if perr != nil {
			return "", nil, fmt.Errorf("malformed spec %q: argument %q is not a number", spec, part)
		}
		args = append(args, v)
	}
	return name, args, nil
}

// Split splits a comma-separated spec list without breaking inside
// parentheses: "dp(1,0.5),staleness" → ["dp(1,0.5)", "staleness"].
func Split(s string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// IntArg rejects non-integral spec arguments instead of silently
// truncating them — krum(0.9) must not quietly become Krum{F: 0}.
func IntArg(v float64, name string) (int, error) {
	if v != float64(int(v)) {
		return 0, fmt.Errorf("%s takes an integer, got %g", name, v)
	}
	return int(v), nil
}
