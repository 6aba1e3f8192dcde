package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/partition"
	"repro/internal/pool"
)

// refFold is the value fold as it ran before its pairs merged at their
// rows, with its merges done by sorting: each scanned entry turned back
// into its global row vertex and appended to a raw bin per fold-group
// member, each bin sorted and compacted before it is sent, and what
// arrives for this rank, its own bin's set included, gathered and sorted
// and compacted once the exchange is over.
type refFold[V any] struct {
	c          *comm.Comm
	g          comm.Group
	o          *Common
	l          partition.View
	ops        Payload[V]
	compact    func(vs []uint32, xs []V) ([]uint32, []V, int) // refOr or refMin
	binV       [][]uint32
	binX       [][]V
	arrV, decV []uint32
	arrX, decX []V
}

func newRefFold[V any](c *comm.Comm, g comm.Group, o *Common, l partition.View, ops Payload[V], compact func([]uint32, []V) ([]uint32, []V, int)) *refFold[V] {
	return &refFold[V]{c: c, g: g, o: o, l: l, ops: ops, compact: compact,
		binV: make([][]uint32, g.Size()), binX: make([][]V, g.Size())}
}

// bin appends the entry at local row ri of st, with value x, to its
// member's raw bin.
func (f *refFold[V]) bin(st *partition.Store2D, ri uint32, x V) {
	u, m := st.RowVertex(ri)
	f.binV[m], f.binX[m] = append(f.binV[m], uint32(u)), append(f.binX[m], x)
}

func (f *refFold[V]) deliver(tag int, st *Step) ([]uint32, []V, int) {
	vertexCost := f.c.Model().VertexCost
	absorbed := 0
	f.arrV, f.arrX = f.arrV[:0], f.arrX[:0]
	prep := func(m int) []uint32 {
		lo, hi := f.l.OwnedRange(f.g.World(m))
		f.c.ChargeItems(len(f.binV[m]), vertexCost)
		vs, xs, d := f.compact(f.binV[m], f.binX[m])
		absorbed += d
		f.binV[m], f.binX[m] = f.binV[m][:0], f.binX[m][:0]
		if m == f.g.Me {
			f.arrV, f.arrX = append(f.arrV, vs...), append(f.arrX, xs...)
			return nil
		}
		return f.ops.Encode(Set{IDs: vs, Count: len(vs)}, xs, uint32(lo), int(hi-lo))
	}
	handle := func(m int, part []uint32) {
		if m != f.g.Me {
			f.decV, f.decX = f.ops.Decode(part, f.decV, f.decX)
			f.arrV, f.arrX = append(f.arrV, f.decV...), append(f.arrX, f.decX...)
		}
	}
	o := collective.Opts{Tag: tag, Chunk: f.o.ChunkWords, Async: f.o.Async}
	st.FoldWords = collective.Exchange(f.c, f.g, o, prep, handle).RecvWords
	f.c.ChargeItems(len(f.arrV), vertexCost)
	vs, xs, d := f.compact(f.arrV, f.arrX)
	return vs, xs, absorbed + d
}

// rowEntry is one scanned edge entry: its local row and its value.
type rowEntry[V any] struct {
	ri uint32
	x  V
}

// rowScan is a scan over entries through Scan: each chunk merges its
// entries at their rows of f (merge non-nil), or only counts them (the
// reference, which bins them itself).
type rowScan[V any] struct {
	f       *Fold[V]
	merge   rowMerge[V]
	entries []rowEntry[V]
}

func (k rowScan[V]) Chunk(t *Tally, lo, hi int, shared bool) {
	for _, e := range k.entries[lo:hi] {
		if k.merge != nil {
			k.merge(k.f, t.Pairs, e.ri, e.x, shared)
		}
	}
	t.Scanned += hi - lo
}

// valueStep is one rank's reading of one fold step.
type valueStep[V any] struct {
	foldGot[V]
	clock float64
}

// rowEntries draws rank's entries of step round: rows of random members,
// about a third of them from a narrow band so rows repeat, with random
// values; a member that owns nothing gets none.
func rowEntries[V any](rng *rand.Rand, st *partition.Store2D, g comm.Group, value func(*rand.Rand) V) []rowEntry[V] {
	l := st.View()
	span := st.RowCount / l.C
	var out []rowEntry[V]
	for i, k := 0, rng.Intn(400); i < k; i++ {
		m := rng.Intn(g.Size())
		lo, hi := l.OwnedRange(g.World(m))
		owned := int(hi - lo)
		if owned == 0 {
			continue
		}
		off := rng.Intn(owned)
		if i%3 == 0 {
			off = rng.Intn(min(owned, 5))
		}
		out = append(out, rowEntry[V]{uint32(m*span + off), value(rng)})
	}
	return out
}

// runValueFold runs rounds steps of the fold on every rank of an R x C
// mesh over stores — the row-accumulated Fold, or with ref the reference
// — scanning each step's entries through Scan on a pool of workers.
func runValueFold[V any](t *testing.T, stores []*partition.Store2D, ref bool, workers, rounds int, async bool, vf valueFold[V],
	payload func(*frontier.ContainerHist) Payload[V]) [][]valueStep[V] {
	t.Helper()
	l := stores[0].View()
	mesh := comm.Mesh{R: l.R, C: l.C}
	got := make([][]valueStep[V], l.P())
	if _, err := testWorld(t, l.P()).Run(func(c *comm.Comm) {
		o := Defaults()
		o.Async, o.ChunkWords = async, 8
		st, g := stores[c.Rank()], mesh.RowGroup(c.Rank())
		p := pool.New(workers)
		rng := rand.New(rand.NewSource(int64(7919*c.Rank() + 1)))
		var hist frontier.ContainerHist
		f := NewFold(c, g, &o, st, payload(&hist))
		rf := newRefFold(c, g, &o, l, payload(&hist), vf.compact)
		for round := range rounds {
			entries := rowEntries(rng, st, g, vf.value)
			var step Step
			var vs []uint32
			var xs []V
			var absorbed int
			if ref {
				tl := Tally{}
				Scan(&tl, c, p, len(entries), 16, len(entries), rowScan[V]{entries: entries})
				for _, e := range entries {
					rf.bin(st, e.ri, e.x)
				}
				vs, xs, absorbed = rf.deliver(64*round, &step)
			} else {
				Scan(f.Tally(), c, p, len(entries), 16, len(entries), rowScan[V]{f, vf.merge, entries})
				vs, xs, absorbed = f.Deliver(64*round, &step)
			}
			got[c.Rank()] = append(got[c.Rank()], valueStep[V]{foldGot[V]{slices.Clone(vs), slices.Clone(xs), step.FoldWords, absorbed}, c.Clock()})
		}
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// valueFold is one payload's side of the check: its scans' row merge,
// the sort-then-compact merge of the reference, and a value draw.
type valueFold[V any] struct {
	merge   rowMerge[V]
	compact func(vs []uint32, xs []V) ([]uint32, []V, int)
	value   func(*rand.Rand) V
}

func checkValueFold[V any](t *testing.T, vf valueFold[V], payload func(frontier.WireMode, *frontier.ContainerHist) Payload[V]) {
	for _, mc := range []struct{ n, r, c int }{{997, 2, 2}, {2000, 4, 4}, {997, 3, 2}, {3000, 1, 16}, {520, 1, 260}} {
		stores := emptyStores(t, mc.n, mc.r, mc.c)
		for _, wire := range []frontier.WireMode{frontier.WireSparse, frontier.WireHybrid} {
			bind := func(h *frontier.ContainerHist) Payload[V] { return payload(wire, h) }
			for _, workers := range []int{1, 4} {
				for _, async := range []bool{false, true} {
					if mc.c > 255 && (wire != frontier.WireHybrid || workers != 4 || !async) {
						continue // 67,600 messages a step: one cell puts members past 255
					}
					name := fmt.Sprintf("%dx%d/%v/workers=%d/async=%v", mc.r, mc.c, wire, workers, async)
					got := runValueFold(t, stores, false, workers, 3, async, vf, bind)
					want := runValueFold(t, stores, true, workers, 3, async, vf, bind)
					for rank := range got {
						for round := range got[rank] {
							if g, w := got[rank][round], want[rank][round]; !reflect.DeepEqual(g, w) {
								t.Fatalf("%s: rank %d step %d: got %d pairs absorbing %d, %d words in, clock %v; the reference %d absorbing %d, %d words, clock %v",
									name, rank, round, len(g.vs), g.absorbed, g.recvWords, g.clock, len(w.vs), w.absorbed, w.recvWords, w.clock)
							}
						}
					}
				}
			}
		}
	}
}

// TestValueFoldMatchesReference holds the fold that merges at the row
// to the fold that bins raw pairs and merges them by sorting, for min
// and OR payloads: the delivered sets and values, the duplicates
// absorbed, the words received and every rank's clock, step after step
// on reused scratch, on square, non-square and 1 x P meshes — 1 x 260
// puts a member index past 255 — under both schedules with chunked
// messages, the scans run inline and on four workers, whose chunks
// merge at once.
func TestValueFoldMatchesReference(t *testing.T) {
	t.Run("min", func(t *testing.T) {
		checkValueFold(t, valueFold[uint32]{minMerge, refMin, func(r *rand.Rand) uint32 { return uint32(r.Intn(1 << 20)) }},
			func(w frontier.WireMode, h *frontier.ContainerHist) Payload[uint32] { return minPayload{w, h} })
	})
	t.Run("or", func(t *testing.T) {
		checkValueFold(t, valueFold[uint64]{orMerge, refOr, func(r *rand.Rand) uint64 { return r.Uint64() & r.Uint64() }},
			func(w frontier.WireMode, h *frontier.ContainerHist) Payload[uint64] { return orPayload{w, h} })
	})
}

// The sort-then-compact merges the engines used before the value folds
// merged at the row (bfs.dedupOr, sssp.dedupMin): each sorts the pairs
// by id in place, merges the values of equal ids, and returns the
// ascending duplicate-free pairs with the number absorbed.

type orPairs struct {
	vs []uint32
	ms []uint64
}

func (p orPairs) Len() int           { return len(p.vs) }
func (p orPairs) Less(i, j int) bool { return p.vs[i] < p.vs[j] }
func (p orPairs) Swap(i, j int) {
	p.vs[i], p.vs[j] = p.vs[j], p.vs[i]
	p.ms[i], p.ms[j] = p.ms[j], p.ms[i]
}

func refOr(vs []uint32, ms []uint64) ([]uint32, []uint64, int) {
	if len(vs) < 2 {
		return vs, ms, 0
	}
	sort.Sort(orPairs{vs, ms})
	w := 1
	for i := 1; i < len(vs); i++ {
		if vs[i] != vs[w-1] {
			vs[w], ms[w] = vs[i], ms[i]
			w++
		} else {
			ms[w-1] |= ms[i]
		}
	}
	return vs[:w], ms[:w], len(vs) - w
}

type minPairs struct{ vs, ds []uint32 }

func (p minPairs) Len() int { return len(p.vs) }
func (p minPairs) Less(i, j int) bool {
	return p.vs[i] < p.vs[j] || (p.vs[i] == p.vs[j] && p.ds[i] < p.ds[j])
}
func (p minPairs) Swap(i, j int) {
	p.vs[i], p.vs[j] = p.vs[j], p.vs[i]
	p.ds[i], p.ds[j] = p.ds[j], p.ds[i]
}

func refMin(vs, ds []uint32) ([]uint32, []uint32, int) {
	if len(vs) < 2 {
		return vs, ds, 0
	}
	sort.Sort(minPairs{vs, ds})
	w := 1
	for i := 1; i < len(vs); i++ {
		if vs[i] != vs[w-1] {
			vs[w], ds[w] = vs[i], ds[i]
			w++
		}
	}
	return vs[:w], ds[:w], len(vs) - w
}
