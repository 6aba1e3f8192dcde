package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/localindex"
	"repro/internal/partition"
	"repro/internal/pool"
)

// refFold is the value fold as it ran before its pairs merged at their
// rows: each scanned entry turned back into its global row vertex and
// appended to a raw bin per fold-group member, each bin merged by a
// send-side Combiner retargeted to its member's range, and what arrives
// merged by the owner's Combiner.
type refFold[V any] struct {
	c          *comm.Comm
	g          comm.Group
	o          *Common
	l          partition.View
	ops        Payload[V]
	comb, own  *localindex.Combiner
	binV       [][]uint32
	binX       [][]V
	outV, decV []uint32
	outX, decX []V
}

func newRefFold[V any](c *comm.Comm, g comm.Group, o *Common, l partition.View, ops Payload[V]) *refFold[V] {
	f := &refFold[V]{c: c, g: g, o: o, l: l, ops: ops,
		comb: localindex.NewCombiner(l.BlockSize), own: localindex.NewCombiner(l.BlockSize),
		binV: make([][]uint32, g.Size()), binX: make([][]V, g.Size())}
	lo, hi := l.OwnedRange(g.World(g.Me))
	f.own.Reset(uint32(lo), int(hi-lo))
	return f
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
	prep := func(m int) []uint32 {
		lo, hi := f.l.OwnedRange(f.g.World(m))
		f.comb.Reset(uint32(lo), int(hi-lo))
		f.ops.Add(f.comb, f.binV[m], f.binX[m])
		var d int
		f.outV, f.outX, d = f.ops.Drain(f.comb, f.outV[:0], f.outX[:0])
		absorbed += d
		f.c.ChargeItems(len(f.outV)+d, vertexCost)
		f.binV[m], f.binX[m] = f.binV[m][:0], f.binX[m][:0]
		if m == f.g.Me {
			f.ops.Add(f.own, f.outV, f.outX)
			return nil
		}
		return f.ops.Encode(f.outV, f.outX, uint32(lo), int(hi-lo))
	}
	handle := func(m int, part []uint32) {
		if m != f.g.Me {
			f.decV, f.decX = f.ops.Decode(part, f.decV, f.decX)
			f.ops.Add(f.own, f.decV, f.decX)
		}
	}
	o := collective.Opts{Tag: tag, Chunk: f.o.ChunkWords, Async: f.o.Async}
	st.FoldWords = collective.Exchange(f.c, f.g, o, prep, handle).RecvWords
	var d int
	f.outV, f.outX, d = f.ops.Drain(f.own, f.outV[:0], f.outX[:0])
	f.c.ChargeItems(len(f.outV)+d, vertexCost)
	return f.outV, f.outX, absorbed + d
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
func runValueFold[V any](t *testing.T, stores []*partition.Store2D, ref bool, workers, rounds int, async bool, merge rowMerge[V],
	value func(*rand.Rand) V, payload func(*frontier.ContainerHist) Payload[V]) [][]valueStep[V] {
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
		rf := newRefFold(c, g, &o, l, payload(&hist))
		for round := range rounds {
			entries := rowEntries(rng, st, g, value)
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
				Scan(f.Tally(), c, p, len(entries), 16, len(entries), rowScan[V]{f, merge, entries})
				vs, xs, absorbed = f.Deliver(64*round, &step)
			}
			got[c.Rank()] = append(got[c.Rank()], valueStep[V]{foldGot[V]{slices.Clone(vs), slices.Clone(xs), step.FoldWords, absorbed}, c.Clock()})
		}
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func checkValueFold[V any](t *testing.T, merge rowMerge[V], value func(*rand.Rand) V, payload func(frontier.WireMode, *frontier.ContainerHist) Payload[V]) {
	for _, mc := range []struct{ n, r, c int }{{997, 2, 2}, {2000, 4, 4}, {997, 3, 2}, {3000, 1, 16}, {520, 1, 260}} {
		stores := emptyStores(t, mc.n, mc.r, mc.c)
		wires := []frontier.WireMode{frontier.WireSparse, frontier.WireHybrid}
		if mc.c > 255 {
			if testing.Short() {
				continue // 67,600 messages a step: a minute under the race detector
			}
			wires = wires[1:] // one codec is enough
		}
		for _, wire := range wires {
			bind := func(h *frontier.ContainerHist) Payload[V] { return payload(wire, h) }
			for _, workers := range []int{1, 4} {
				for _, async := range []bool{false, true} {
					name := fmt.Sprintf("%dx%d/%v/workers=%d/async=%v", mc.r, mc.c, wire, workers, async)
					got := runValueFold(t, stores, false, workers, 3, async, merge, value, bind)
					want := runValueFold(t, stores, true, workers, 3, async, merge, value, bind)
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
// to the bins-and-Combiner fold it replaced, for min and OR payloads:
// the delivered sets and values, the duplicates absorbed, the words
// received and every rank's clock, step after step on reused scratch, on
// square, non-square and 1 x P meshes — 1 x 260 puts a member index past
// 255 — under both schedules with chunked messages, the scans run inline
// and on four workers, whose chunks merge at once.
func TestValueFoldMatchesReference(t *testing.T) {
	t.Run("min", func(t *testing.T) {
		checkValueFold(t, minMerge,
			func(r *rand.Rand) uint32 { return uint32(r.Intn(1 << 20)) },
			func(w frontier.WireMode, h *frontier.ContainerHist) Payload[uint32] { return minPayload{w, h} })
	})
	t.Run("or", func(t *testing.T) {
		checkValueFold(t, orMerge,
			func(r *rand.Rand) uint64 { return r.Uint64() & r.Uint64() },
			func(w frontier.WireMode, h *frontier.ContainerHist) Payload[uint64] { return orPayload{w, h} })
	})
}
