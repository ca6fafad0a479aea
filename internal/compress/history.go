package compress

// histEntry retains one superseded version's params as a delta base. The
// slice is shared with the snapshot that published it and never written.
type histEntry struct {
	version int
	params  []float64
}

// History is the delta history behind version-aware pulls: it retains the
// params of the last depth superseded model versions and, each time the
// model advances, publishes the exact sparse delta from every retained
// version to the new one — for each base, field for field what
// Diff(base, target, len(target)/2) returns, and absent when Diff would
// abandon (the full pull is cheaper on the wire).
//
// The cost of an Advance follows what changed, not history × size: one
// step delta prev→target (a Diff, or a comparison at the coordinates the
// caller says it wrote), then per older entry a merge of its previous delta
// with the step — a coordinate can only differ between an old base and the
// new target if it moved on the way to prev or in the step, so only the
// union of those two index lists is compared. An entry whose previous delta
// was abandoned, or a step that went dense, falls back to Diff.
//
// A History is not safe for concurrent use (the parameter server advances
// it under its model lock, an edge under its upstream lock); the maps and
// deltas it returns are immutable and may be read from anywhere.
type History struct {
	depth   int
	cur     histEntry       // target of the last Reset/Advance; no params before the first
	entries []histEntry     // superseded versions, oldest first, ≤ depth
	deltas  map[int]*Sparse // entry version → exact delta to cur
	// nan lists the coordinates at which cur is NaN, valid while nanOK: a
	// NaN compares unequal to itself, so Diff reports it in every delta
	// even where nothing was written.
	nan   []int32
	nanOK bool
	idx   []int32 // merge scratch, reused across Advances
	vals  []float64
}

// NewHistory keeps deltas for the last depth versions; depth <= 0 keeps
// none (every Advance returns nil).
func NewHistory(depth int) *History { return &History{depth: depth} }

// Reset starts a fresh line at (version, params) with no delta bases:
// boot, a checkpoint restore, or an incarnation change — params from
// before the cut are meaningless as bases after it.
func (h *History) Reset(version int, params []float64) {
	h.cur = histEntry{version: version, params: params}
	h.entries = nil
	h.deltas = nil
	h.nanOK = false
}

// Advance moves the line to (version, params) and returns the deltas from
// each retained older version, keyed by that version. params must not be
// written afterwards. touched, when non-nil, lists in ascending order every
// coordinate written since the previous target, and possibly more — the
// indices of a delta the caller just patched in, or of the sparse gradients
// it applied; nil makes Advance find them.
func (h *History) Advance(version int, params []float64, touched []int32) map[int]*Sparse {
	if h.depth <= 0 || len(params) != len(h.cur.params) {
		h.Reset(version, params)
		return nil
	}
	prev := h.cur
	if len(h.entries) == h.depth {
		copy(h.entries, h.entries[1:])
		h.entries[h.depth-1] = prev
	} else {
		h.entries = append(h.entries, prev)
	}
	maxNNZ := len(params) / 2

	// The step delta is re-derived from the caller's list rather than
	// copied: a relayed delta may carry coordinates that went back to their
	// old bits, which Diff does not report, and lacks the untouched NaNs,
	// which it does.
	var d *Sparse
	if touched != nil && h.nanOK {
		d = h.changed(touched, h.nan, prev.params, params, maxNNZ)
	}
	if d == nil {
		if full, ok := Diff(prev.params, params, maxNNZ); ok {
			d = &full
		}
	}
	// Every NaN of params is in d; without d (a dense step) the next
	// Advance cannot use its touched list and pays one Diff to find them
	// again.
	h.nan, h.nanOK = h.nan[:0], d != nil
	if d != nil {
		for k, v := range d.Values {
			if v != v {
				h.nan = append(h.nan, d.Indices[k])
			}
		}
	}

	next := make(map[int]*Sparse, len(h.entries))
	for _, e := range h.entries[:len(h.entries)-1] {
		if via := h.deltas[e.version]; via != nil && d != nil {
			// Both lists are this type's own output, so a nil result
			// means the merge passed maxNNZ — exactly when Diff abandons.
			if c := h.changed(via.Indices, d.Indices, e.params, params, maxNNZ); c != nil {
				next[e.version] = c
			}
		} else if full, ok := Diff(e.params, params, maxNNZ); ok {
			next[e.version] = &full
		}
	}
	if d != nil {
		next[prev.version] = d
	}
	h.cur = histEntry{version: version, params: params}
	h.deltas = next
	return next
}

// changed walks the union of the ascending index lists a and b and keeps
// the coordinates where target differs from base, with target's values —
// Diff restricted to the candidates, allocated at its exact size. It
// returns nil when more than maxNNZ coordinates differ (maxNNZ <= 0: no
// bound) or a list is not strictly ascending within the vector.
func (h *History) changed(a, b []int32, base, target []float64, maxNNZ int) *Sparse {
	h.idx, h.vals = h.idx[:0], h.vals[:0]
	last := int32(-1)
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
		if c <= last || int(c) >= len(target) {
			return nil
		}
		last = c
		if target[c] != base[c] {
			if maxNNZ > 0 && len(h.idx) == maxNNZ {
				return nil
			}
			h.idx = append(h.idx, c)
			h.vals = append(h.vals, target[c])
		}
	}
	out := &Sparse{
		Len:     len(target),
		Indices: make([]int32, len(h.idx)),
		Values:  make([]float64, len(h.vals)),
	}
	copy(out.Indices, h.idx)
	copy(out.Values, h.vals)
	return out
}
