// Package frontier holds a BFS frontier — the set of vertex ids a
// level labeled, drawn from a rank's contiguous owned universe
// [lo, lo+n) — together with the wire-encoding primitives the
// collectives move sets and bitmaps with.
//
// The set, Adaptive, is a vertex queue while it holds a small fraction
// of its universe (the regime of the paper's early and late BFS levels)
// and switches to a bitmap once it holds more than 1/32 of it, where the
// bitmap is both smaller (32 ids per wire word) and cheaper to walk.
//
// The wire codec (EncodeSet/Decode) is self-describing: each payload
// carries whichever of its forms is fewest words, which lets the
// collectives transmit bitmaps instead of vertex lists exactly when
// denser is cheaper.
package frontier

import (
	"fmt"
	"math/bits"

	"repro/internal/localindex"
)

// maxPresize caps how many ids a frontier reserves up front.
const maxPresize = 4096

// Adaptive is a mutable set of vertex ids from the universe [lo, lo+n).
// It starts as an id queue, kept ascending and duplicate-free lazily —
// appends in ascending order, the common case in the level-synchronized
// engines, cost nothing; out-of-order inserts are normalized on the next
// read — and switches to a bitmap once it holds more than 1/32 of its
// universe. The switch is one-way until Reset: a level frontier only
// grows. The engines keep two per search side and Reset the spare one
// for each new level, so the id queue — reserved once, at the switch
// threshold it can never outgrow — and the bitmap are reused level after
// level. It is not safe for concurrent use; in the SPMD engines each
// rank owns its frontiers outright.
type Adaptive struct {
	lo    uint32
	n     int
	limit int // switch to the bitmap when Len() exceeds this
	// The sparse form: the members, unsorted or duplicated while dirty.
	ids   []uint32
	dirty bool
	// The dense form: the bitmap, built at the first switch and kept
	// (cleared) across Resets, and its member count.
	dense   *localindex.Bitset
	count   int
	isDense bool
}

// New returns an empty frontier over [lo, lo+n).
func New(lo uint32, n int) *Adaptive {
	return &Adaptive{lo: lo, n: n, limit: max(n/32, 1)}
}

// Reset empties the frontier, back in the sparse form, keeping its
// storage.
func (a *Adaptive) Reset() {
	a.ids = a.ids[:0]
	a.dirty = false
	if a.isDense {
		a.dense.Reset()
		a.count = 0
		a.isDense = false
	}
}

// Add inserts v, which must lie in the universe; inserting a vertex
// twice is a no-op. The raw queue length bounds the distinct count from
// above, so the (normalizing) Len is only consulted once that bound
// crosses the switch threshold.
func (a *Adaptive) Add(v uint32) {
	if v < a.lo || uint64(v) >= uint64(a.lo)+uint64(a.n) {
		panic(fmt.Sprintf("frontier: vertex %d outside universe [%d, %d)", v, a.lo, uint64(a.lo)+uint64(a.n)))
	}
	if a.isDense {
		if !a.dense.TestAndSet(v - a.lo) {
			a.count++
		}
		return
	}
	if a.ids == nil {
		a.ids = make([]uint32, 0, min(a.limit+1, maxPresize))
	}
	if k := len(a.ids); k > 0 && a.ids[k-1] >= v {
		if a.ids[k-1] == v {
			return
		}
		a.dirty = true
	}
	a.ids = append(a.ids, v)
	if len(a.ids) > a.limit && a.Len() > a.limit {
		if a.dense == nil {
			a.dense = localindex.NewBitset(a.n)
		}
		for _, id := range a.ids {
			a.dense.Set(id - a.lo)
		}
		a.count = len(a.ids)
		a.ids = a.ids[:0]
		a.isDense = true
	}
}

// normalize sorts and dedups the id queue.
func (a *Adaptive) normalize() {
	if a.dirty {
		a.ids, _ = localindex.SortSet(a.ids)
		a.dirty = false
	}
}

// Len returns the number of distinct members.
func (a *Adaptive) Len() int {
	if a.isDense {
		return a.count
	}
	a.normalize()
	return len(a.ids)
}

// Universe returns the id range [lo, lo+n) the frontier draws from.
func (a *Adaptive) Universe() (lo uint32, n int) { return a.lo, a.n }

// Iterate calls fn for every member in ascending order. Both forms are
// walked here, with no dynamic call but fn's, so a closure passed on a
// *Adaptive stays on the caller's stack.
func (a *Adaptive) Iterate(fn func(v uint32)) {
	if a.isDense {
		a.eachDense(fn)
		return
	}
	a.normalize()
	for _, v := range a.ids {
		fn(v)
	}
}

// eachDense calls fn for every member of the bitmap in ascending order.
// It is small enough to inline, so a closure passed here by a caller in
// this package is inlined too.
func (a *Adaptive) eachDense(fn func(v uint32)) {
	for wi, w := range a.dense.Words() {
		base := a.lo + uint32(wi)*64
		for ; w != 0; w &= w - 1 {
			fn(base + uint32(bits.TrailingZeros64(w)))
		}
	}
}

// Words returns a dense frontier's bitmap — bit i%64 of word i/64 is
// member lo+i — or nil while the frontier is sparse. It aliases the
// frontier's storage; callers must not mutate it.
func (a *Adaptive) Words() []uint64 {
	if !a.isDense {
		return nil
	}
	return a.dense.Words()
}

// Vertices returns the members in ascending order. A sparse frontier's
// slice aliases its storage; callers must not mutate it.
func (a *Adaptive) Vertices() []uint32 {
	if !a.isDense {
		a.normalize()
		return a.ids
	}
	out := make([]uint32, 0, a.count)
	a.eachDense(func(v uint32) { out = append(out, v) })
	return out
}

// Bits renders the frontier as a wire bitmap over its universe (bit i
// of word j is vertex lo+32j+i), packing the bitmap word for word once
// the frontier is dense.
func (a *Adaptive) Bits() []uint32 {
	if !a.isDense {
		return IDsToBits(a.Vertices(), a.lo, a.n)
	}
	out := NewBits(a.n)
	for wi, w := range a.dense.Words() {
		if 2*wi < len(out) {
			out[2*wi] = uint32(w)
		}
		if 2*wi+1 < len(out) {
			out[2*wi+1] = uint32(w >> 32)
		}
	}
	return out
}
