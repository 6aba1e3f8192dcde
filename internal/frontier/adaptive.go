package frontier

// DefaultOccupancy is the sparse→dense switch threshold of the adaptive
// frontier: once more than this fraction of the universe is in the set,
// the bitmap form is both smaller (32 ids per word) and faster to
// union, so the representation flips.
const DefaultOccupancy = 1.0 / 32

// maxPresize caps how many ids an adaptive frontier reserves up front.
const maxPresize = 4096

// Adaptive is a frontier that starts sparse and switches to the dense
// bitmap once occupancy crosses a threshold. The switch is one-way until
// Reset: a level frontier only grows. The engines keep two per search
// side and Reset the spare one for each new level, so the id queue —
// reserved once, at the switch threshold it can never outgrow — and the
// bitmap are reused level after level.
type Adaptive struct {
	sparse  Sparse
	dense   *Dense // built at the first switch, kept (cleared) across Resets
	isDense bool
	limit   int // switch to dense when Len() exceeds this
}

// NewAdaptive returns an empty adaptive frontier over [lo, lo+n) that
// switches to the dense representation when occupancy exceeds the given
// fraction (<= 0 selects DefaultOccupancy; >= 1 never switches).
func NewAdaptive(lo uint32, n int, occupancy float64) *Adaptive {
	if occupancy <= 0 {
		occupancy = DefaultOccupancy
	}
	limit := int(occupancy * float64(n))
	if limit < 1 {
		limit = 1
	}
	return &Adaptive{sparse: Sparse{lo: lo, n: n}, limit: limit}
}

// Reset empties the frontier, back in the sparse representation,
// keeping its storage.
func (a *Adaptive) Reset() {
	a.sparse.ids = a.sparse.ids[:0]
	a.sparse.dirty = false
	if a.isDense {
		a.dense.clear()
		a.isDense = false
	}
}

// rep returns the current concrete representation.
func (a *Adaptive) rep() Frontier {
	if a.isDense {
		return a.dense
	}
	return &a.sparse
}

// Add inserts v, switching representation at the occupancy threshold.
// The raw backing length bounds the distinct count from above, so the
// (normalizing) Len is only consulted once that bound is crossed.
func (a *Adaptive) Add(v uint32) {
	if a.isDense {
		a.dense.Add(v)
		return
	}
	s := &a.sparse
	if s.ids == nil {
		s.ids = make([]uint32, 0, min(a.limit+1, maxPresize))
	}
	s.Add(v)
	if len(s.ids) > a.limit && s.Len() > a.limit {
		if a.dense == nil {
			a.dense = NewDense(s.lo, s.n)
		}
		for _, id := range s.ids {
			a.dense.Add(id)
		}
		s.ids = s.ids[:0]
		a.isDense = true
	}
}

// Has reports membership.
func (a *Adaptive) Has(v uint32) bool {
	if a.isDense {
		return a.dense.Has(v)
	}
	return a.sparse.Has(v)
}

// Len returns the number of members.
func (a *Adaptive) Len() int {
	if a.isDense {
		return a.dense.Len()
	}
	return a.sparse.Len()
}

// Universe returns the id range.
func (a *Adaptive) Universe() (uint32, int) { return a.sparse.lo, a.sparse.n }

// Iterate visits members in ascending order. Both representations are
// reached by a static call, so a closure passed here on a *Adaptive
// stays on the caller's stack.
func (a *Adaptive) Iterate(fn func(v uint32)) {
	if a.isDense {
		a.dense.Iterate(fn)
		return
	}
	a.sparse.Iterate(fn)
}

// Vertices returns the ascending member slice.
func (a *Adaptive) Vertices() []uint32 {
	if a.isDense {
		return a.dense.Vertices()
	}
	return a.sparse.Vertices()
}

// Kind reports the current underlying representation.
func (a *Adaptive) Kind() Kind {
	if a.isDense {
		return KindDense
	}
	return KindSparse
}
