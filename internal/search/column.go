package search

import (
	"math/bits"
	"unsafe"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/trace"
)

// Column is the targeted column expand of a superstep (§2.2, Algorithm 2
// steps 7–11), the same for every family and both schedules: a staged
// frontier vertex, its value alongside, travels down the processor
// column only to the mesh rows holding a partial edge list for it. The
// staging is allocated once per rank per run; the wire form, decode
// staging included, is the family's.
type Column[V any] struct {
	c     *comm.Comm
	g     comm.Group
	o     *Common
	st    *partition.Store2D
	wire  Wire[V]
	rows  []staged[V] // per destination row
	added int         // vertices staged
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
// frontier and row-need masks st holds.
func NewColumn[V any](c *comm.Comm, g comm.Group, o *Common, st *partition.Store2D, w Wire[V]) *Column[V] {
	return &Column[V]{c: c, g: g, o: o, st: st, wire: w, rows: make([]staged[V], g.Size())}
}

// Add stages owned vertex gv with x for every row its RowNeed bits name;
// a zero-size x is not staged (each append of one calls the runtime).
func (col *Column[V]) Add(gv uint32, x V) {
	for w, need := range col.st.NeedWords(col.st.LocalOf(graph.Vertex(gv))) {
		for ; need != 0; need &= need - 1 {
			r := &col.rows[w*64+bits.TrailingZeros64(need)]
			r.vs = append(r.vs, gv)
			if unsafe.Sizeof(x) != 0 {
				r.xs = append(r.xs, x)
			}
		}
	}
	col.added++
}

// Expand charges the mask scan, |F| x ceil(R/64) EdgeCost, exchanges the
// staged parts under o.Async's schedule, hands each to scan as it comes —
// this rank's own as the staging, unencoded, xs empty if V is zero-size —
// and empties the staging. It returns the words received.
func (col *Column[V]) Expand(tag int, scan func(vs []uint32, xs []V)) int {
	col.c.ChargeItems(col.added*((col.g.Size()+63)/64), col.c.Model().EdgeCost)
	me, lo, n := col.g.Me, uint32(col.st.Lo), col.st.OwnedCount()
	prep := func(m int) []uint32 {
		if m == me {
			return nil // stays local
		}
		return col.wire.Encode(col.rows[m].vs, col.rows[m].xs, lo, n)
	}
	handle := func(m int, part []uint32) {
		if m == me {
			scan(col.rows[m].vs, col.rows[m].xs)
		} else {
			scan(col.wire.Decode(part))
		}
	}
	o := collective.Opts{Tag: tag, Chunk: col.o.ChunkWords, Async: col.o.Async}
	words := collective.Exchange(col.c, col.g, o, prep, handle).RecvWords
	for i := range col.rows {
		col.rows[i] = staged[V]{col.rows[i].vs[:0], col.rows[i].xs[:0]}
	}
	col.added = 0
	return words
}

// Bins is a step's scan output: the (vertex, value) pairs found, binned
// by destination fold-group member (X nil when no value rides along),
// and the edge entries inspected and hash probes made. A family's kernel
// is one chunk body appending to a Bins: the step's own when the pool
// runs a part inline, else each chunk's, which Scan appends in chunk
// order — the same bins and counts at every pool size.
type Bins[V any] struct {
	V       [][]uint32
	X       [][]V
	Scanned int
	Probes  uint64
}

// Reset empties the bins and zeroes the counts.
func (b *Bins[V]) Reset() {
	for m := range b.V {
		b.V[m] = b.V[m][:0]
	}
	for m := range b.X {
		b.X[m] = b.X[m][:0]
	}
	b.Scanned, b.Probes = 0, 0
}

// Scan scans one part of n items into b inside an engine/scan span:
// k.Chunk over [0, n) into b when the pool runs it inline, else over
// each chunk into staged Bins of its own, appended to b in chunk order.
// Chunk's shared is true only in the latter case, where chunks run at
// once on several goroutines and must claim shared state atomically.
// Scan then charges, on the modeled cores, the handling of the recv
// vertices received (0 for the rank's own), the part's edge entries,
// then its probes. k is the family's part, a value rather than a
// closure, so a part scanned inline allocates nothing.
func Scan[V any, K interface {
	Chunk(o *Bins[V], lo, hi int, shared bool)
}](b *Bins[V], c *comm.Comm, p *pool.Pool, n, grain, recv int, k K) {
	scanned0, probes0 := b.Scanned, b.Probes
	c.Tracer().Begin("engine", "scan")
	if p.Inline(n, grain) {
		k.Chunk(b, 0, n, false)
	} else {
		nb, values := len(b.V), b.X != nil
		outs := pool.Collect(p, n, grain, func(o *Bins[V], lo, hi int) {
			o.V = make([][]uint32, nb)
			if values {
				o.X = make([][]V, nb)
			}
			k.Chunk(o, lo, hi, true)
		})
		for _, o := range outs {
			b.Scanned, b.Probes = b.Scanned+o.Scanned, b.Probes+o.Probes
			for m := range o.V {
				b.V[m] = append(b.V[m], o.V[m]...)
			}
			for m := range o.X {
				b.X[m] = append(b.X[m], o.X[m]...)
			}
		}
	}
	m := c.Model()
	scanned, probes := b.Scanned-scanned0, b.Probes-probes0
	c.ChargeItemsPar(recv, m.VertexCost)
	c.ChargeItemsPar(scanned, m.EdgeCost)
	c.ChargeItemsPar(int(probes), m.HashCost)
	c.Tracer().End(trace.Arg{Key: "edges", Val: int64(scanned)}, trace.Arg{Key: "probes", Val: int64(probes)})
}
