// Package frontier provides pluggable representations of a BFS
// frontier — a set of vertex ids drawn from a contiguous universe
// [lo, lo+n) — together with conversion, set-union and wire-encoding
// primitives.
//
// Three representations are provided:
//
//   - Sparse: a vertex queue, cheap while the frontier is a small
//     fraction of the universe (the regime of the paper's early and
//     late BFS levels).
//   - Dense: a bitmap over the universe, built on localindex.Bitset;
//     cheap when the frontier is large, and its set union is word-wise
//     OR — the form the bottom-up BFS steps and the bitmap wire
//     encoding fold over.
//   - Adaptive: starts sparse and switches to dense when occupancy
//     crosses a tunable threshold, so level frontiers pay for the
//     representation that fits them.
//
// The wire codec (EncodeSet/Decode) is self-describing: each payload
// carries whichever of the two forms is fewer words, which lets the
// collectives transmit bitmaps instead of vertex lists exactly when
// denser is cheaper.
package frontier

// Kind identifies a frontier's current representation.
type Kind int

const (
	// KindSparse is the vertex-queue representation.
	KindSparse Kind = iota
	// KindDense is the bitmap representation.
	KindDense
)

func (k Kind) String() string {
	switch k {
	case KindSparse:
		return "sparse"
	case KindDense:
		return "dense"
	default:
		return "unknown"
	}
}

// Frontier is a mutable set of vertex ids from the universe [lo, lo+n).
// Implementations are not safe for concurrent use; in the SPMD engines
// each rank owns its frontiers outright.
type Frontier interface {
	// Add inserts v, which must lie in the universe. Inserting a
	// vertex twice is a no-op.
	Add(v uint32)
	// Has reports membership of v (which must lie in the universe).
	Has(v uint32) bool
	// Len returns the number of distinct vertices in the set.
	Len() int
	// Universe returns the id range [lo, lo+n) this frontier draws
	// from.
	Universe() (lo uint32, n int)
	// Iterate calls fn for every member in ascending order.
	Iterate(fn func(v uint32))
	// Vertices returns the members in ascending order. The slice may
	// alias internal storage; callers must not mutate it.
	Vertices() []uint32
	// Kind reports the current representation.
	Kind() Kind
}

// ToDense converts any frontier to the bitmap representation (returns
// the argument itself when it already is one).
func ToDense(f Frontier) *Dense {
	if d, ok := Unwrap(f).(*Dense); ok {
		return d
	}
	lo, n := f.Universe()
	d := NewDense(lo, n)
	f.Iterate(d.Add)
	return d
}

// ToSparse converts any frontier to the vertex-queue representation
// (returns the argument itself when it already is one).
func ToSparse(f Frontier) *Sparse {
	if s, ok := Unwrap(f).(*Sparse); ok {
		return s
	}
	lo, n := f.Universe()
	s := NewSparse(lo, n)
	f.Iterate(s.Add)
	return s
}

// Unwrap strips the Adaptive wrapper, exposing the underlying concrete
// representation.
func Unwrap(f Frontier) Frontier {
	if a, ok := f.(*Adaptive); ok {
		return a.rep()
	}
	return f
}

// Union adds every member of src to dst. Both must share a universe
// large enough for src's members. When both sides are dense the union
// is word-wise OR.
func Union(dst, src Frontier) {
	d, dok := Unwrap(dst).(*Dense)
	s, sok := Unwrap(src).(*Dense)
	if dok && sok && d.lo == s.lo && d.n == s.n {
		d.Or(s)
		return
	}
	src.Iterate(dst.Add)
}
