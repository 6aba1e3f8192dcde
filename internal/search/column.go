package search

import (
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/trace"
)

// Column is the targeted column expand of a superstep (§2.2, Algorithm 2
// steps 7–11), the same for every family and both schedules: a frontier
// vertex, its value alongside, travels down the processor column only to
// the mesh rows holding a partial edge list for it. Row m's part is cut
// from the staged frontier whole — its bitmap words ANDed with the
// store's NeedRow(m), or its ids filtered by that row's bit — and, with
// no wire form, written once, sized by its count, into the buffer the
// transport is handed. The rank's own part and the part a wire form
// encodes are enumerated into scratch reused for the run.
type Column[V any] struct {
	c    *comm.Comm
	g    comm.Group
	o    *Common
	st   *partition.Store2D
	wire Wire[V] // nil: parts travel as raw ascending id lists
	// own is the rank's own part, scanned as it is; part stages the part
	// the wire form encodes next.
	own, part staged[V]
}

// Wire is a family's wire form: Encode packs a part drawn from the
// sending rank's owned universe [lo, lo+n), Decode unpacks one into
// staging of its own, valid until its next call.
type Wire[V any] interface {
	Encode(vs []uint32, xs []V, lo uint32, n int) []uint32
	Decode(buf []uint32) ([]uint32, []V)
}

type staged[V any] struct {
	vs []uint32
	xs []V
}

// NewColumn builds the column expand of group g on rank c, whose
// row-need masks st holds, in the wire form w; a nil w moves raw
// ascending id lists, the legacy format, and carries no values.
func NewColumn[V any](c *comm.Comm, g comm.Group, o *Common, st *partition.Store2D, w Wire[V]) *Column[V] {
	return &Column[V]{c: c, g: g, o: o, st: st, wire: w}
}

// Expand moves the staged frontier — words, its bitmap over the owned
// range, when non-nil, else ids, its ascending members — each member
// with its value read at its local index in xs (nil when V carries
// nothing). It charges the mask scan, |F| x ceil(R/64) EdgeCost,
// exchanges the parts under o.Async's schedule and hands each to scan
// as it comes: this rank's own unencoded, xs empty if V is zero-size. It
// returns the words received.
func (col *Column[V]) Expand(tag int, words []uint64, ids []uint32, xs []V, scan func(vs []uint32, xs []V)) int {
	members := len(ids)
	if words != nil {
		members = 0
		for _, w := range words {
			members += bits.OnesCount64(w)
		}
	}
	col.c.ChargeItems(members*((col.g.Size()+63)/64), col.c.Model().EdgeCost)
	me, lo, n := col.g.Me, uint32(col.st.Lo), col.st.OwnedCount()
	prep := func(m int) []uint32 {
		need := col.st.NeedRow(m)
		switch {
		case m == me:
			col.own = stage(col.own, words, ids, lo, need, xs)
			return nil // stays local
		case col.wire == nil:
			return appendPart(make([]uint32, 0, partLen(words, ids, lo, need)), words, ids, lo, need)
		}
		col.part = stage(col.part, words, ids, lo, need, xs)
		return col.wire.Encode(col.part.vs, col.part.xs, lo, n)
	}
	handle := func(m int, part []uint32) {
		switch {
		case m == me:
			scan(col.own.vs, col.own.xs)
		case col.wire == nil:
			scan(part, nil)
		default:
			scan(col.wire.Decode(part))
		}
	}
	o := collective.Opts{Tag: tag, Chunk: col.o.ChunkWords, Async: col.o.Async}
	return collective.Exchange(col.c, col.g, o, prep, handle).RecvWords
}

// stage refills s with the part need selects from the staged frontier
// (see Expand) and, unless V is zero-size, its values gathered from xs.
func stage[V any](s staged[V], words []uint64, ids []uint32, lo uint32, need []uint64, xs []V) staged[V] {
	k := partLen(words, ids, lo, need)
	s.vs = appendPart(slices.Grow(s.vs[:0], k), words, ids, lo, need)
	var x V
	if unsafe.Sizeof(x) != 0 {
		s.xs = slices.Grow(s.xs[:0], k)[:k]
		for i, gv := range s.vs {
			s.xs[i] = xs[gv-lo]
		}
	}
	return s
}

// partLen returns the size of the part need selects from the staged
// frontier — words when non-nil, else ids — of the owned range from lo.
func partLen(words []uint64, ids []uint32, lo uint32, need []uint64) int {
	k := 0
	if words != nil {
		for i, w := range words {
			k += bits.OnesCount64(w & need[i])
		}
		return k
	}
	for _, gv := range ids {
		li := gv - lo
		k += int(need[li>>6] >> (li & 63) & 1)
	}
	return k
}

// appendPart appends the part partLen counts to dst, ascending.
func appendPart(dst []uint32, words []uint64, ids []uint32, lo uint32, need []uint64) []uint32 {
	if words != nil {
		for i, w := range words {
			base := lo + uint32(i)*64
			for w &= need[i]; w != 0; w &= w - 1 {
				dst = append(dst, base+uint32(bits.TrailingZeros64(w)))
			}
		}
		return dst
	}
	for _, gv := range ids {
		if li := gv - lo; need[li>>6]&(1<<(li&63)) != 0 {
			dst = append(dst, gv)
		}
	}
	return dst
}

// Tally is a step's scan counts: the edge entries inspected, the hash
// probes made and, for a scan that merges pairs into a fold's rows
// (Rows), the pairs merged for each fold-group member. A family's kernel
// is one chunk body counting into a Tally: the step's own when the pool
// runs a part inline, else each chunk's, which Scan sums — the same
// counts at every pool size. The fold that reads a member's rows zeroes
// its pair count.
type Tally struct {
	Scanned int
	Probes  uint64
	Pairs   []uint64
	// chunks are the pool's per-chunk tallies, their pair counts cut
	// from spare; both are kept for the next pooled scan.
	chunks []Tally
	spare  []uint64
}

// Reset zeroes the edge and probe counts.
func (t *Tally) Reset() { t.Scanned, t.Probes = 0, 0 }

// split readies nc zeroed chunk tallies.
func (t *Tally) split(nc int) []Tally {
	m := len(t.Pairs)
	t.chunks = slices.Grow(t.chunks[:0], nc)[:nc]
	t.spare = slices.Grow(t.spare[:0], nc*m)[:nc*m]
	clear(t.spare)
	for i := range t.chunks {
		t.chunks[i] = Tally{Pairs: t.spare[i*m : (i+1)*m : (i+1)*m]}
	}
	return t.chunks
}

// Scan scans one part of n items into t inside an engine/scan span:
// k.Chunk over [0, n) into t when the pool runs it inline, else over
// each chunk into a tally of its own, summed into t. Chunk's shared is
// true only in the latter case, where chunks run at once on several
// goroutines and must merge into shared rows atomically. Scan then
// charges, on the modeled cores, the handling of the recv vertices
// received (0 for the rank's own), the part's edge entries, then its
// probes. k is the family's part, a value rather than a closure, so a
// part scanned inline allocates nothing.
func Scan[K interface {
	Chunk(t *Tally, lo, hi int, shared bool)
}](t *Tally, c *comm.Comm, p *pool.Pool, n, grain, recv int, k K) {
	scanned0, probes0 := t.Scanned, t.Probes
	c.Tracer().Begin("engine", "scan")
	if p.Inline(n, grain) {
		k.Chunk(t, 0, n, false)
	} else {
		chunks := t.split(pool.Chunks(n, grain))
		p.Run(n, grain, func(chunk, lo, hi int) { k.Chunk(&chunks[chunk], lo, hi, true) })
		for _, o := range chunks {
			t.Scanned, t.Probes = t.Scanned+o.Scanned, t.Probes+o.Probes
			for m, x := range o.Pairs {
				t.Pairs[m] += x
			}
		}
	}
	m := c.Model()
	scanned, probes := t.Scanned-scanned0, t.Probes-probes0
	c.ChargeItemsPar(recv, m.VertexCost)
	c.ChargeItemsPar(scanned, m.EdgeCost)
	c.ChargeItemsPar(int(probes), m.HashCost)
	c.Tracer().End(trace.Arg{Key: "edges", Val: int64(scanned)}, trace.Arg{Key: "probes", Val: int64(probes)})
}
