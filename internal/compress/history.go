package compress

import (
	"math"
	"sync"
)

// histEntry retains one superseded version's params as a delta base. The
// slice is shared with the snapshot that published it and never written.
type histEntry struct {
	version int
	params  []float64
}

// History is the delta history behind version-aware pulls: it retains the
// params of the last depth superseded model versions and, each time the
// model advances, publishes a Deltas view answering, for each retained
// base, field for field what Diff(base, target, len(target)/2) returns —
// nothing when Diff would abandon (the full pull is cheaper on the wire).
//
// An Advance pays for one delta only, the step prev→target every announce
// carries: a Diff, or none when the write that moved the model recorded the
// step itself (a sparse window's apply, an edge's upstream delta), which
// the history trusts and publishes as it is. The delta from an older base
// is left to the first pull that names it (Deltas.From), which composes it
// outside any lock of the publisher.
//
// A History is not safe for concurrent use (the parameter server advances
// it under its model lock, an edge under its upstream lock); the views and
// deltas it returns are immutable to their readers and may be used from
// anywhere, concurrently with further Advances.
type History struct {
	depth int
	cur   histEntry   // target of the last Reset/Advance; no params before the first
	bases []deltaBase // cur's view: superseded versions, oldest first, ≤ depth
}

// deltaBase is one retained version inside a Deltas view.
type deltaBase struct {
	histEntry
	// step is the exact delta from this version to the next retained one
	// (to the view's target for the newest base); nil when it was abandoned.
	step *Sparse
	// delta is the exact delta to the view's target of every base but the
	// newest (whose step it is), composed under once by the first From.
	once  sync.Once
	delta *Sparse
}

// Deltas is the immutable delta view of one published version: a lookup
// from a retained older version to the exact sparse difference to it. The
// zero value retains nothing.
type Deltas struct {
	target []float64
	bases  []deltaBase
}

// NewHistory keeps deltas for the last depth versions; depth <= 0 keeps
// none (every Advance returns the empty view).
func NewHistory(depth int) *History { return &History{depth: depth} }

// Reset starts a fresh line at (version, params) with no delta bases:
// boot, a checkpoint restore, or an incarnation change — params from
// before the cut are meaningless as bases after it.
func (h *History) Reset(version int, params []float64) {
	h.cur = histEntry{version: version, params: params}
	h.bases = nil
}

// Advance moves the line to (version, params) and returns the view of the
// deltas from each retained older version. params must not be written
// afterwards. step, when non-nil, is the exact step from the previous
// target that the write which made params recorded — every coordinate
// whose bits it changed, strictly ascending, with its new value
// (nn.Network.ApplyGradientAt, or an edge's upstream delta, which Patch
// checked) — and becomes the published delta as it is, or none past
// len(params)/2; neither it nor its slices may be written afterwards. nil
// makes Advance find the step with one Diff.
func (h *History) Advance(version int, params []float64, step *Sparse) Deltas {
	if h.depth <= 0 || len(params) != len(h.cur.params) {
		h.Reset(version, params)
		return Deltas{}
	}
	prev := h.cur
	maxNNZ := len(params) / 2

	d := step
	if d == nil {
		if full, ok := Diff(prev.params, params, maxNNZ); ok {
			d = &full
		}
	} else if maxNNZ > 0 && len(d.Indices) > maxNNZ {
		d = nil
	}

	// The new view keeps the newest depth−1 bases of the old one, each with
	// the step that left it, and prev. The old view's slice is shared with
	// readers that may be composing from it: entries are rebuilt, never
	// moved, and only the fields no reader writes are read.
	old := h.bases
	if len(old) >= h.depth {
		old = old[len(old)-h.depth+1:]
	}
	bases := make([]deltaBase, len(old)+1)
	for i := range old {
		bases[i].histEntry, bases[i].step = old[i].histEntry, old[i].step
	}
	bases[len(old)].histEntry, bases[len(old)].step = prev, d
	h.cur = histEntry{version: version, params: params}
	h.bases = bases
	return Deltas{target: params, bases: bases}
}

// From returns the exact delta from the retained version to the view's
// target — Diff(base, target, len(target)/2) field for field — or nil when
// that version is not retained or Diff would abandon. The newest base
// costs a lookup; an older one is composed by the first call that asks for
// it, once per view, and shared by every later one. Safe for concurrent
// use.
func (v Deltas) From(version int) *Sparse {
	for i := range v.bases {
		if v.bases[i].version == version {
			return v.at(i)
		}
	}
	return nil
}

// Step is From for the version the target superseded and nothing older: a
// lookup that never composes, so it reads neither vector.
func (v Deltas) Step(version int) *Sparse {
	if n := len(v.bases); n > 0 && v.bases[n-1].version == version {
		return v.bases[n-1].step
	}
	return nil
}

// at returns the delta from bases[i]. A coordinate can only differ between
// that base and the target if it moved in the step that left the base or
// differs between the next base and the target, so only the union of those
// two index lists is compared; where either was abandoned, Diff decides.
func (v Deltas) at(i int) *Sparse {
	b := &v.bases[i]
	if i == len(v.bases)-1 {
		return b.step
	}
	b.once.Do(func() {
		maxNNZ := len(v.target) / 2
		if via := v.at(i + 1); b.step != nil && via != nil {
			sc := scratchPool.Get().(*mergeScratch)
			// Both lists are this type's own output, so a nil result means
			// the merge passed maxNNZ — exactly when Diff abandons.
			b.delta = changed(sc, b.step.Indices, via.Indices, b.params, v.target, maxNNZ)
			scratchPool.Put(sc)
		} else if full, ok := Diff(b.params, v.target, maxNNZ); ok {
			b.delta = &full
		}
	})
	return b.delta
}

// mergeScratch collects one merge's output before it is copied out at its
// exact size.
type mergeScratch struct {
	idx  []int32
	vals []float64
}

// scratchPool serves the compositions, which run on pull goroutines.
var scratchPool = sync.Pool{New: func() interface{} { return new(mergeScratch) }}

// changed walks the union of the strictly ascending index lists a and b and
// keeps the coordinates whose bits differ between base and target, with
// target's values — Diff restricted to the candidates, allocated at its
// exact size. It returns nil when more than maxNNZ coordinates differ
// (maxNNZ <= 0: no bound).
func changed(sc *mergeScratch, a, b []int32, base, target []float64, maxNNZ int) *Sparse {
	sc.idx, sc.vals = sc.idx[:0], sc.vals[:0]
	for i, j := 0, 0; i < len(a) || j < len(b); {
		var c int32
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			c = a[i]
			i++
		case i == len(a) || b[j] < a[i]:
			c = b[j]
			j++
		default:
			c = a[i]
			i++
			j++
		}
		if math.Float64bits(target[c]) != math.Float64bits(base[c]) {
			if maxNNZ > 0 && len(sc.idx) == maxNNZ {
				return nil
			}
			sc.idx = append(sc.idx, c)
			sc.vals = append(sc.vals, target[c])
		}
	}
	out := &Sparse{
		Len:     len(target),
		Indices: make([]int32, len(sc.idx)),
		Values:  make([]float64, len(sc.vals)),
	}
	copy(out.Indices, sc.idx)
	copy(out.Values, sc.vals)
	return out
}
