package spec

import (
	"errors"
	"reflect"
	"testing"
)

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		name string
		args []float64
		ok   bool
	}{
		{"mean", "mean", nil, true},
		{" krum(1) ", "krum", []float64{1}, true},
		{"dp(1,0.5)", "dp", []float64{1, 0.5}, true},
		{"per-worker-quota(3, 60)", "per-worker-quota", []float64{3, 60}, true},
		{"empty()", "empty", nil, true},
		{"", "", nil, false},
		{"krum(1", "", nil, false},
		{"(1)", "", nil, false},
		{"krum(x)", "", nil, false},
	}
	for _, c := range cases {
		name, args, err := Parse(c.in)
		if c.ok != (err == nil) {
			t.Errorf("Parse(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if name != c.name || !reflect.DeepEqual(args, c.args) {
			t.Errorf("Parse(%q) = %q %v, want %q %v", c.in, name, args, c.name, c.args)
		}
	}
}

func TestSplit(t *testing.T) {
	got := Split("dp(1,0.5),staleness,min-batch(5)")
	want := []string{"dp(1,0.5)", "staleness", "min-batch(5)"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Split = %v, want %v", got, want)
	}
}

func TestIntArg(t *testing.T) {
	if v, err := IntArg(3, "f"); err != nil || v != 3 {
		t.Fatalf("IntArg(3) = %d, %v", v, err)
	}
	if _, err := IntArg(0.9, "f"); err == nil {
		t.Fatal("IntArg(0.9) must error")
	}
}

func TestTableLookup(t *testing.T) {
	table := map[string]Ctor[int, float64]{
		"scale": func(args []float64, k int) (float64, error) {
			if len(args) != 1 {
				return 0, errors.New("scale takes (x)")
			}
			return args[0] * float64(k), nil
		},
		"one": func([]float64, int) (float64, error) { return 1, nil },
	}
	if got, err := BuildList("unit", table, "scale(2), one", 3); err != nil || !reflect.DeepEqual(got, []float64{6, 1}) {
		t.Fatalf("BuildList = %v, %v", got, err)
	}
	if got, err := BuildList("unit", table, " ", 3); err != nil || got != nil {
		t.Fatalf("blank list = %v, %v, want none", got, err)
	}
	_, err := Build("unit", table, "warp(1)", 3)
	if want := `unknown unit "warp" (known: one, scale)`; err == nil || err.Error() != want {
		t.Fatalf("unknown name: %v, want %q", err, want)
	}
	if _, err := Build("unit", table, "scale", 3); err == nil || err.Error() != `unit "scale": scale takes (x)` {
		t.Fatalf("constructor error not wrapped with kind and name: %v", err)
	}
	if _, err := Build("unit", table, "scale(1", 3); err == nil {
		t.Fatal("malformed spec built")
	}
	if got := Names(table); !reflect.DeepEqual(got, []string{"one", "scale"}) {
		t.Fatalf("Names = %v", got)
	}
}
