package compress

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// historyOracle is the implementation History replaced: keep the last depth
// superseded versions and Diff every one of them against the new target.
type historyOracle struct {
	depth   int
	cur     histEntry
	entries []histEntry
}

func (o *historyOracle) reset(version int, params []float64) {
	o.cur, o.entries = histEntry{version, params}, nil
}

func (o *historyOracle) advance(version int, params []float64) map[int]*Sparse {
	if o.depth <= 0 {
		o.reset(version, params)
		return nil
	}
	o.entries = append(o.entries, o.cur)
	if len(o.entries) > o.depth {
		o.entries = o.entries[len(o.entries)-o.depth:]
	}
	o.cur = histEntry{version, params}
	out := map[int]*Sparse{}
	for _, e := range o.entries {
		if d, ok := Diff(e.params, params, len(params)/2); ok {
			out[e.version] = &d
		}
	}
	return out
}

// TestHistoryMatchesDiff is the equivalence oracle of the composed delta
// history: over randomized sequences of sparse, dense and mixed windows —
// coordinates reverting to their old bits or rewritten with the bits they
// hold, a delta crossing the half-vector bound and coming back under it,
// NaNs written and left alone, +0 ↔ −0, resets (boot / incarnation change),
// with and without the step the writer recorded — every delta a view hands
// out equals Diff(base, target, P/2) field for field, and is absent exactly
// when Diff abandons. Bases are asked in random order, some never, and a
// second goroutine asks the same view while the history keeps advancing.
func TestHistoryMatchesDiff(t *testing.T) {
	const P = 64
	// recovered counts deltas published for a base whose previous delta was
	// abandoned: the model came back under the bound, and the history had
	// nothing to compose from.
	recovered := 0
	for _, depth := range []int{-1, 1, 4} {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			h, o := NewHistory(depth), &historyOracle{depth: depth}
			// versions[i] is every params vector published so far, reverts
			// draw their old bits from it.
			cur := make([]float64, P)
			for i := range cur {
				cur[i] = rng.NormFloat64()
			}
			versions := [][]float64{cur}
			h.Reset(0, cur)
			o.reset(0, cur)
			composed, abandoned, skipped := 0, 0, 0
			var last map[int]*Sparse
			// check compares one view against the oracle's map for the
			// bases given, in the order given.
			check := func(v int, view Deltas, want map[int]*Sparse, bases []int) {
				for _, base := range bases {
					g, w := view.From(base), want[base]
					if (g == nil) != (w == nil) || (g != nil && !sameSparse(*g, *w)) {
						t.Errorf("depth %d seed %d v%d base %d:\n got %+v\nwant %+v", depth, seed, v, base, g, w)
					}
				}
			}
			var readers sync.WaitGroup
			for v := 1; v <= 60 && !t.Failed(); v++ {
				next := append([]float64(nil), cur...)
				touched := map[int32]bool{}
				set := func(i int, x float64) { next[i] = x; touched[int32(i)] = true }
				switch op := rng.Intn(11); {
				case op < 4: // sparse window
					for n := 1 + rng.Intn(5); n > 0; n-- {
						set(rng.Intn(P), rng.NormFloat64())
					}
				case op < 5: // mixed: a third of the vector, two of them cross P/2
					for n := P / 3; n > 0; n-- {
						set(rng.Intn(P), rng.NormFloat64())
					}
				case op < 6: // dense window
					for i := range next {
						set(i, next[i]+1)
					}
				case op < 8: // revert everything to an older version's bits
					old := versions[rng.Intn(len(versions))]
					for i := range next {
						if rng.Intn(8) > 0 {
							set(i, old[i])
						}
					}
				case op < 9: // rewrite a few coordinates with the bits they hold, plus a NaN
					for n := 3; n > 0; n-- {
						i := rng.Intn(P)
						set(i, next[i])
					}
					set(rng.Intn(P), math.NaN())
					if i := slices.IndexFunc(next, math.IsNaN); i >= 0 && rng.Intn(2) == 0 {
						set(i, math.NaN()) // a NaN written over a NaN
					}
				case op < 10: // signed zeros: new ones, and every zero's sign flipped
					for n := 2; n > 0; n-- {
						set(rng.Intn(P), math.Copysign(0, rng.NormFloat64()))
					}
					for i, x := range next {
						if x == 0 {
							set(i, -x)
						}
					}
				default: // incarnation change
					h.Reset(v, next)
					o.reset(v, next)
					cur, versions, last = next, append(versions, next), nil
					continue
				}
				// The caller's step: nothing (a full pull, a dense drain),
				// or what its write recorded — the written coordinates whose
				// bits moved (+0 → −0 does, a NaN rewritten with its own
				// bits does not).
				var step *Sparse
				if rng.Intn(2) == 0 {
					step = &Sparse{Len: P, Indices: []int32{}, Values: []float64{}}
					for i := int32(0); i < P; i++ {
						if touched[i] && math.Float64bits(next[i]) != math.Float64bits(cur[i]) {
							step.Indices, step.Values = append(step.Indices, i), append(step.Values, next[i])
						}
					}
				}
				view, want := h.Advance(v, next, step), o.advance(v, next)
				// Every retained base and the two versions either side of
				// them (never retained), shuffled; one view in four leaves
				// some bases unasked, so later views compose without them.
				var ask, all []int
				for base := v - depth - 1; base <= v; base++ {
					all = append(all, base)
					if rng.Intn(4) > 0 || v%4 != 0 {
						ask = append(ask, base)
					} else {
						skipped++
					}
				}
				rng.Shuffle(len(ask), func(i, j int) { ask[i], ask[j] = ask[j], ask[i] })
				// The concurrent reader asks every base of this view while
				// the loop goes on to advance the history past it.
				readers.Add(1)
				go func() {
					defer readers.Done()
					check(v, view, want, all)
				}()
				check(v, view, want, ask)
				for base := range want {
					if base != v-1 && last[base] == nil {
						recovered++
					}
				}
				composed += len(want)
				abandoned += len(o.entries) - len(want)
				cur, versions, last = next, append(versions, next), want
			}
			readers.Wait()
			if t.Failed() {
				return
			}
			if depth > 0 && (composed == 0 || abandoned == 0) {
				t.Fatalf("depth %d seed %d: sequence exercised %d published and %d abandoned deltas", depth, seed, composed, abandoned)
			}
			if depth > 1 && skipped == 0 {
				t.Fatalf("depth %d seed %d: every base of every view was asked", depth, seed)
			}
		}
	}
	if recovered == 0 {
		t.Fatal("no sequence brought an abandoned delta back under the bound")
	}
}

// sameSparse is field-for-field equality with NaN == NaN (DeepEqual on the
// float bits would do, but not on the floats).
func sameSparse(a, b Sparse) bool {
	if a.Len != b.Len || !reflect.DeepEqual(a.Indices, b.Indices) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// TestHistoryRejectsBadStep: the history publishes a recorded step as it
// is, so a step that is not strictly ascending inside the vector must never
// reach Advance. A step from outside the program reaches it only through
// Patch (an edge patches its cache with the upstream's delta, then advances
// with that delta): Patch refuses each malformed step and leaves the cache
// as it was, while the well-formed step patches the cache to the target
// and is published as Diff would find it.
func TestHistoryRejectsBadStep(t *testing.T) {
	boot := []float64{0, 2, 3, 4}
	base := []float64{1, 2, 3, 4}
	next := []float64{1, 9, 3, 8}
	want, _ := Diff(base, next, 2)
	for name, idx := range map[string][]int32{
		"descending":   {3, 1},
		"duplicate":    {1, 1, 3},
		"out of range": {1, 3, 4},
		"negative":     {-1, 1, 3},
	} {
		step := &Sparse{Len: len(next), Indices: idx, Values: make([]float64, len(idx))}
		for k, i := range idx {
			if i >= 0 && int(i) < len(next) {
				step.Values[k] = next[i]
			}
		}
		cache := slices.Clone(base)
		if err := step.Patch(cache); err == nil {
			t.Errorf("%s step: Patch accepted it", name)
		}
		if !slices.Equal(cache, base) {
			t.Errorf("%s step: a refused Patch wrote the cache: %v", name, cache)
		}
	}

	step := &Sparse{Len: len(next), Indices: []int32{1, 3}, Values: []float64{9, 8}}
	cache := slices.Clone(base)
	if err := step.Patch(cache); err != nil {
		t.Fatalf("well-formed step: %v", err)
	}
	if !slices.Equal(cache, next) {
		t.Fatalf("well-formed step: patched %v, want %v", cache, next)
	}
	h := NewHistory(2)
	h.Reset(0, boot)
	h.Advance(1, base, nil)
	got := h.Advance(2, cache, step)
	if d := got.From(1); d == nil || !sameSparse(*d, want) {
		t.Errorf("well-formed step: published %+v, want %+v", d, want)
	}
}

// BenchmarkHistoryAdvance closes a window at the bench/perf model size
// (cifar100, 325 k parameters, ~1 % of them moved per window, 4 versions
// retained): what a window whose writer recorded no step pays (step-only:
// one Diff), what it pays when a pull then names every older base
// (compose-on-first-pull), and the per-entry Diff loop both replaced.
func BenchmarkHistoryAdvance(b *testing.B) {
	const P, depth, moved = 325_000, 4, 12_000
	// The history references the current version and depth older ones, so a
	// ring of depth+2 buffers always has one free for the next version.
	// advance returns how many deltas it produced.
	run := func(b *testing.B, reset func(int, []float64), advance func(int, []float64) int, want int) {
		rng := rand.New(rand.NewSource(1))
		ring := make([][]float64, depth+2)
		for i := range ring {
			ring[i] = make([]float64, P)
		}
		step := func(v int) []float64 {
			next := ring[v%len(ring)]
			copy(next, ring[(v-1)%len(ring)])
			for n := 0; n < moved; n++ {
				next[rng.Intn(P)] = rng.NormFloat64()
			}
			return next
		}
		reset(0, ring[0])
		for v := 1; v <= depth; v++ {
			advance(v, step(v))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			v := depth + 1 + i
			next := step(v)
			b.StartTimer()
			if got := advance(v, next); got != want {
				b.Fatalf("produced %d deltas, want %d", got, want)
			}
		}
	}
	// pulled counts the deltas of the newest n bases of the view at v.
	pulled := func(view Deltas, v, n int) (got int) {
		for base := v - 1; base >= v-n; base-- {
			if view.From(base) != nil {
				got++
			}
		}
		return got
	}
	b.Run("step-only", func(b *testing.B) {
		h := NewHistory(depth)
		run(b, h.Reset, func(v int, p []float64) int { return pulled(h.Advance(v, p, nil), v, 1) }, 1)
	})
	b.Run("compose-on-first-pull", func(b *testing.B) {
		h := NewHistory(depth)
		run(b, h.Reset, func(v int, p []float64) int { return pulled(h.Advance(v, p, nil), v, depth) }, depth)
	})
	b.Run("diff-per-entry", func(b *testing.B) {
		o := &historyOracle{depth: depth}
		run(b, o.reset, func(v int, p []float64) int { return len(o.advance(v, p)) }, depth)
	})
}
