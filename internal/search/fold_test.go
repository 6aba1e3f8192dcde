package search

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/partition"
)

// The two payloads the families bind, reduced to their essentials: a
// lane mask merged by OR (two value words a vertex, one header word the
// way bfs frames its mask form) and a distance merged by min.

type orPayload struct {
	wire frontier.WireMode
	hist *frontier.ContainerHist
}

func (orPayload) Identity() uint64 { return 0 }
func (orPayload) Merge(acc []uint64, in *Inbox, part []uint32) {
	set, count, hdr, rest := in.Unframe(part, 1)
	if hdr[0] != 0xfeed || len(rest) != 2*count {
		panic("or payload mangled")
	}
	for k, ri := range rowsOf(set, in.Row) {
		acc[ri] |= uint64(rest[2*k]) | uint64(rest[2*k+1])<<32
	}
}
func (p orPayload) Encode(s Set, ms []uint64, lo uint32, n int) []uint32 {
	if s.Count == 0 {
		return nil
	}
	out := FrameSet(s, lo, n, p.wire, p.hist, 2*len(ms), 0xfeed)
	for _, m := range ms {
		out = append(out, uint32(m), uint32(m>>32))
	}
	return out
}
func (orPayload) Decode(buf, vs []uint32, ms []uint64) ([]uint32, []uint64) {
	if len(buf) == 0 {
		return vs[:0], ms[:0]
	}
	vs, hdr, rest := UnframeSet(buf, vs, 1)
	if hdr[0] != 0xfeed || len(rest) != 2*len(vs) {
		panic("or payload mangled")
	}
	ms = ms[:0]
	for i := range vs {
		ms = append(ms, uint64(rest[2*i])|uint64(rest[2*i+1])<<32)
	}
	return vs, ms
}

type minPayload struct {
	wire frontier.WireMode
	hist *frontier.ContainerHist
}

func (minPayload) Identity() uint32 { return math.MaxUint32 }
func (minPayload) Merge(acc []uint32, in *Inbox, part []uint32) {
	set, count, _, ds := in.Unframe(part, 0)
	if len(ds) != count {
		panic("min payload mangled")
	}
	for k, ri := range rowsOf(set, in.Row) {
		acc[ri] = min(acc[ri], ds[k])
	}
}
func (p minPayload) Encode(s Set, ds []uint32, lo uint32, n int) []uint32 {
	if s.Count == 0 {
		return nil
	}
	return append(FrameSet(s, lo, n, p.wire, p.hist, len(ds)), ds...)
}

// setIDs returns a copy of the ids of s, drawn from a universe from lo.
func setIDs(s Set, lo uint32) []uint32 {
	if s.Bits == nil {
		return slices.Clone(s.IDs)
	}
	var ids []uint32
	for _, v := range rowsOf(s.Bits, lo) {
		ids = append(ids, v)
	}
	return ids
}

// rowsOf yields the k-th member of the wire bitmap set, in bit order,
// with its row: row plus its bit.
func rowsOf(set []uint32, row uint32) iter.Seq2[int, uint32] {
	return func(yield func(int, uint32) bool) {
		k := 0
		for wi, x := range set {
			for ; x != 0; x &= x - 1 {
				if !yield(k, row+uint32(wi)*32+uint32(bits.TrailingZeros32(x))) {
					return
				}
				k++
			}
		}
	}
}
func (minPayload) Decode(buf, vs, _ []uint32) ([]uint32, []uint32) {
	if len(buf) == 0 {
		return vs[:0], nil
	}
	vs, _, ds := UnframeSet(buf, vs, 0)
	return vs, ds
}

// foldCase is one fold's inputs, the same on every schedule: on an R x
// C mesh, bins[r][m] holds the raw (vertex, value) pairs rank r found
// for member m of its fold group, its processor row.
type foldCase[V any] struct {
	mesh   comm.Mesh
	stores []*partition.Store2D
	bins   [][][]pair[V]
}

type pair[V any] struct {
	v uint32
	x V
}

// emptyStores returns the stores of an edgeless n-vertex graph on an R x
// C mesh: their rows are all a fold needs.
func emptyStores(t *testing.T, n, r, c int) []*partition.Store2D {
	t.Helper()
	l, err := partition.NewLayout2D(n, r, c)
	if err != nil {
		t.Fatal(err)
	}
	stores, err := partition.Build2D(l, func(func(u, v graph.Vertex)) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return stores
}

// makeCase draws the bins of step round on a 1 x p mesh over n
// vertices: random pairs with plenty of repeats, every third rank's
// first bin empty, and one all-duplicate bin per rank.
func makeCase[V any](t *testing.T, n, p, round int, value func(*rand.Rand) V) foldCase[V] {
	t.Helper()
	fc := foldCase[V]{mesh: comm.Mesh{R: 1, C: p}, stores: emptyStores(t, n, 1, p), bins: make([][][]pair[V], p)}
	l := fc.stores[0].View()
	rng := rand.New(rand.NewSource(int64(1000*p + round)))
	for r := range fc.bins {
		fc.bins[r] = make([][]pair[V], p)
		for m := range fc.bins[r] {
			lo, hi := l.OwnedRange(m)
			switch {
			case hi == lo || (r%3 == 0 && m == (r+1)%p):
				// empty bin
			case m == (r+2)%p:
				v := uint32(lo) + uint32(rng.Intn(int(hi-lo)))
				for i := 0; i < 9; i++ {
					fc.bins[r][m] = append(fc.bins[r][m], pair[V]{v, value(rng)})
				}
			default:
				span := 1 + rng.Intn(int(hi-lo)) // a narrow span repeats vertices
				for i, k := 0, rng.Intn(60); i < k; i++ {
					fc.bins[r][m] = append(fc.bins[r][m], pair[V]{uint32(lo) + uint32(rng.Intn(span)), value(rng)})
				}
			}
		}
	}
	return fc
}

// reference computes what rank owner must receive, by sorting: the
// merged pairs ascending, and the duplicates absorbed on its way — in
// its own send-side merges and in its merge of the arrivals from its
// fold group.
func (fc foldCase[V]) reference(owner int, merge func(a, b V) V) (vs []uint32, xs []V, absorbed int) {
	mergeSorted := func(ps []pair[V]) []pair[V] {
		ps = slices.Clone(ps)
		sort.SliceStable(ps, func(i, j int) bool { return ps[i].v < ps[j].v })
		var out []pair[V]
		for _, p := range ps {
			if k := len(out) - 1; k >= 0 && out[k].v == p.v {
				out[k].x = merge(out[k].x, p.x)
			} else {
				out = append(out, p)
			}
		}
		return out
	}
	for _, bin := range fc.bins[owner] {
		absorbed += len(bin) - len(mergeSorted(bin))
	}
	g := fc.mesh.RowGroup(owner)
	var arrived []pair[V]
	for _, r := range g.Ranks {
		arrived = append(arrived, mergeSorted(fc.bins[r][g.Me])...)
	}
	merged := mergeSorted(arrived)
	absorbed += len(arrived) - len(merged)
	for _, p := range merged {
		vs, xs = append(vs, p.v), append(xs, p.x)
	}
	return vs, xs, absorbed
}

type foldGot[V any] struct {
	vs        []uint32
	xs        []V
	recvWords int
	absorbed  int
}

// rowMerge merges the pair (ri, x) at its row of f, counting it in
// pairs: the scans' Rows.Or or Rows.Min, or their shared forms.
type rowMerge[V any] func(f *Fold[V], pairs []uint64, ri uint32, x V, shared bool)

func orMerge(f *Fold[uint64], pairs []uint64, ri uint32, x uint64, shared bool) {
	if shared {
		f.Rows.OrShared(f.Acc, pairs, ri, x)
	} else {
		f.Rows.Or(f.Acc, pairs, ri, x)
	}
}

func minMerge(f *Fold[uint32], pairs []uint64, ri, x uint32, shared bool) {
	if shared {
		f.Rows.MinShared(f.Acc, pairs, ri, x)
	} else {
		f.Rows.Min(f.Acc, pairs, ri, x)
	}
}

// rowOf returns the local row of vertex v, owned by fold-group member m
// from lo, on store st.
func rowOf(st *partition.Store2D, m int, lo graph.Vertex, v uint32) uint32 {
	return uint32(m*st.RowCount/st.Layout.C) + v - uint32(lo)
}

// runFold delivers rounds steps of cases on one Fold per rank — the
// scratch is reused from step to step, as in the engines — under the
// given schedule, every bin's pairs merged at their rows.
func runFold[V any](t *testing.T, cases []foldCase[V], async bool, merge rowMerge[V], payload func(h *frontier.ContainerHist) Payload[V]) [][]foldGot[V] {
	t.Helper()
	got, err := deliverCases(cases, async, merge, payload)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// deliverCases is runFold's body, returning the run's error.
func deliverCases[V any](cases []foldCase[V], async bool, merge rowMerge[V], payload func(h *frontier.ContainerHist) Payload[V]) ([][]foldGot[V], error) {
	mesh := cases[0].mesh
	w, err := comm.NewWorld(comm.Config{P: mesh.P()})
	if err != nil {
		return nil, err
	}
	got := make([][]foldGot[V], mesh.P())
	_, err = w.Run(func(c *comm.Comm) {
		o := Defaults()
		o.Async = async
		var hist frontier.ContainerHist
		st, g := cases[0].stores[c.Rank()], mesh.RowGroup(c.Rank())
		f := NewFold(c, g, &o, st, payload(&hist))
		for round, fc := range cases {
			tl := f.Tally()
			for m, bin := range fc.bins[c.Rank()] {
				lo, _ := st.View().OwnedRange(g.World(m))
				for _, pr := range bin {
					merge(f, tl.Pairs, rowOf(st, m, lo, pr.v), pr.x, false)
				}
			}
			var step Step
			vs, xs, absorbed := f.Deliver(64*round, &step)
			got[c.Rank()] = append(got[c.Rank()], foldGot[V]{slices.Clone(vs), slices.Clone(xs), step.FoldWords, absorbed})
		}
	})
	return got, err
}

// checkAgainstReference fails t unless every rank's step of got is what
// its case's reference delivers.
func checkAgainstReference[V comparable](t *testing.T, cases []foldCase[V], got [][]foldGot[V], merge func(a, b V) V) {
	t.Helper()
	for rank := range got {
		for round, g := range got[rank] {
			vs, xs, absorbed := cases[round].reference(rank, merge)
			if !slices.Equal(g.vs, vs) || !slices.Equal(g.xs, xs) || g.absorbed != absorbed {
				t.Errorf("rank %d step %d: got %d pairs absorbing %d, the sorted reference has %d absorbing %d",
					rank, round, len(g.vs), g.absorbed, len(vs), absorbed)
			}
		}
	}
}

func checkFold[V comparable](t *testing.T, value func(*rand.Rand) V, merge func(a, b V) V, rm rowMerge[V], payload func(frontier.WireMode, *frontier.ContainerHist) Payload[V]) {
	for _, p := range []int{1, 2, 3, 6, 7} {
		for _, wire := range []frontier.WireMode{frontier.WireSparse, frontier.WireHybrid} {
			t.Run(fmt.Sprintf("p%d/%v", p, wire), func(t *testing.T) {
				cases := []foldCase[V]{makeCase(t, 997, p, 0, value), makeCase(t, 997, p, 1, value)}
				bind := func(h *frontier.ContainerHist) Payload[V] { return payload(wire, h) }
				sync, async := runFold(t, cases, false, rm, bind), runFold(t, cases, true, rm, bind)
				if !reflect.DeepEqual(sync, async) {
					t.Errorf("the schedules disagree:\nsync  %+v\nasync %+v", sync, async)
				}
				checkAgainstReference(t, cases, sync, merge)
			})
		}
	}
}

// TestFoldAgainstSortedReference: the generic value fold delivers, for
// OR and for min, exactly what sorting the raw pairs and merging equal
// vertices would — same pairs, same absorbed-duplicate count — at every
// group size, with empty and all-duplicate bins, under both wire codecs,
// and the two schedules agree to the received word.
func TestFoldAgainstSortedReference(t *testing.T) {
	t.Run("or", func(t *testing.T) {
		checkFold(t,
			func(r *rand.Rand) uint64 { return 1 << uint(r.Intn(64)) },
			func(a, b uint64) uint64 { return a | b }, orMerge,
			func(w frontier.WireMode, h *frontier.ContainerHist) Payload[uint64] { return orPayload{w, h} })
	})
	t.Run("min", func(t *testing.T) {
		checkFold(t,
			func(r *rand.Rand) uint32 { return uint32(r.Intn(1 << 20)) },
			func(a, b uint32) uint32 { return min(a, b) }, minMerge,
			func(w frontier.WireMode, h *frontier.ContainerHist) Payload[uint32] { return minPayload{w, h} })
	})
}

// fuzzCase reads one step's inputs off data: an R x C mesh of at most
// 2 x 3, n vertices, then 4-byte records, each a pair for a rank and a
// member of its fold group — an offset into the member's range, which
// may own nothing, and a value byte.
func fuzzCase[V any](t *testing.T, data []byte, value func(byte) V) foldCase[V] {
	r, c, n := 1+int(data[0])%2, 1+int(data[1])%3, 1+int(data[2])%300
	fc := foldCase[V]{mesh: comm.Mesh{R: r, C: c}, stores: emptyStores(t, n, r, c), bins: make([][][]pair[V], r*c)}
	for rank := range fc.bins {
		fc.bins[rank] = make([][]pair[V], c)
	}
	l := fc.stores[0].View()
	for rec := data[3:]; len(rec) >= 4; rec = rec[4:] {
		rank := int(rec[0]) % (r * c)
		m := int(rec[1]) % c
		lo, hi := l.OwnedRange(fc.mesh.RowGroup(rank).World(m))
		if hi == lo {
			continue
		}
		v := uint32(lo) + uint32(rec[2])%uint32(hi-lo)
		fc.bins[rank][m] = append(fc.bins[rank][m], pair[V]{v, value(rec[3])})
	}
	return fc
}

// FuzzValueFold runs one Deliver for min and one for OR on a mesh, a
// graph size and bins the input chooses, under the schedule and wire
// codec its first byte picks, and checks each rank's delivery against
// the sorted reference.
func FuzzValueFold(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 2, 40, 0, 0, 3, 9, 0, 1, 3, 4, 5, 2, 200, 7, 5, 2, 200, 1})
	f.Add([]byte{3, 1, 4, 1, 0, 0, 255, 2, 1, 1, 0, 3, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		async := data[0]&4 != 0
		wire := frontier.WireSparse
		if data[0]&8 != 0 {
			wire = frontier.WireHybrid
		}
		mins := []foldCase[uint32]{fuzzCase(t, data, func(b byte) uint32 { return uint32(b) })}
		got, err := deliverCases(mins, async, minMerge, func(h *frontier.ContainerHist) Payload[uint32] { return minPayload{wire, h} })
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, mins, got, func(a, b uint32) uint32 { return min(a, b) })
		ors := []foldCase[uint64]{fuzzCase(t, data, func(b byte) uint64 { return 1<<(b%64) | uint64(b)<<56 })}
		gotOr, err := deliverCases(ors, async, orMerge, func(h *frontier.ContainerHist) Payload[uint64] { return orPayload{wire, h} })
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, ors, gotOr, func(a, b uint64) uint64 { return a | b })
	})
}

// strayPayload is a payload whose encoder moves every id of a part, and
// the universe it is drawn from, one owned range up, past the end of its
// owner's: a raw list then holds ids outside the owner's range, a bitmap
// names a universe that is not it.
type strayPayload[V any] struct{ Payload[V] }

func (p strayPayload[V]) Encode(s Set, xs []V, lo uint32, n int) []uint32 {
	stray := setIDs(s, lo)
	for i := range stray {
		stray[i] += uint32(n)
	}
	return p.Payload.Encode(Set{IDs: stray, Count: len(stray)}, xs, lo+uint32(n), n)
}

// TestFoldOutOfRangeIsRunError: a delivered part holding an id outside
// its owner's range, or a bitmap over another range, panics in the
// owner's merge, and the panic, naming the id or the bitmap's range and
// the owner's, comes back as the run's error — under both schedules and
// both merge forms.
func TestFoldOutOfRangeIsRunError(t *testing.T) {
	stores := emptyStores(t, 20, 1, 2)
	for _, async := range []bool{false, true} {
		for wire, want := range map[frontier.WireMode]string{
			frontier.WireSparse: "fold id 23 outside its owner's range [10, 20)",
			frontier.WireDense:  "fold set over [20, 30) outside its owner's range [10, 20)",
		} {
			mins := foldCase[uint32]{mesh: comm.Mesh{R: 1, C: 2}, stores: stores, bins: [][][]pair[uint32]{{nil, {{13, 4}}}, {nil, nil}}}
			_, errMin := deliverCases([]foldCase[uint32]{mins}, async, minMerge, func(h *frontier.ContainerHist) Payload[uint32] {
				return strayPayload[uint32]{minPayload{wire, h}}
			})
			ors := foldCase[uint64]{mesh: comm.Mesh{R: 1, C: 2}, stores: stores, bins: [][][]pair[uint64]{{nil, {{13, 4}}}, {nil, nil}}}
			_, errOr := deliverCases([]foldCase[uint64]{ors}, async, orMerge, func(h *frontier.ContainerHist) Payload[uint64] {
				return strayPayload[uint64]{orPayload{wire, h}}
			})
			for form, err := range map[string]error{"min": errMin, "or": errOr} {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("async=%v %v %s: the run's error is %v, want one naming %q", async, wire, form, err, want)
				}
			}
		}
	}
}

// TestUnframeSetRejectsTruncation: a payload cut inside its head or its
// set panics instead of decoding garbage.
func TestUnframeSetRejectsTruncation(t *testing.T) {
	buf := FrameSet(Set{IDs: []uint32{3, 5, 8}, Count: 3}, 0, 64, frontier.WireSparse, nil, 0, 7)
	for _, cut := range [][]uint32{buf[:1], buf[:len(buf)-1]} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a %d-word cut of a %d-word payload decoded", len(cut), len(buf))
				}
			}()
			UnframeSet(cut, nil, 1)
		}()
	}
}

// TestFrameSetOneAllocation: FrameSet's payload is [setWords, hdr...,
// the set's encoding] under every wire mode, with the histogram the
// encoder keeps on its own, and it allocates no more than encoding the
// set alone does, room for the tail values included.
func TestFrameSetOneAllocation(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(3))
	for _, frac := range []float64{0.0005, 0.02, 0.3, 0.9} {
		var vs []uint32
		for v := 0; v < n; v++ {
			if rng.Float64() < frac {
				vs = append(vs, uint32(v)+n)
			}
		}
		for _, mode := range []frontier.WireMode{frontier.WireSparse, frontier.WireDense, frontier.WireAuto, frontier.WireHybrid} {
			var hWant, hGot frontier.ContainerHist
			enc := frontier.EncodeSetStats(vs, n, n, mode, &hWant)
			out := FrameSet(Set{IDs: vs, Count: len(vs)}, n, n, mode, &hGot, len(vs), 0xfeed, 0xbeef)
			want := append([]uint32{uint32(len(enc)), 0xfeed, 0xbeef}, enc...)
			if !slices.Equal(out, want) || hGot != hWant {
				t.Fatalf("frac %v %v: FrameSet differs from the encoder's payload or histogram", frac, mode)
			}
			if cap(out)-len(out) < len(vs) {
				t.Fatalf("frac %v %v: %d words of tail room for %d values", frac, mode, cap(out)-len(out), len(vs))
			}
			encAllocs := testing.AllocsPerRun(10, func() { frontier.EncodeSetStats(vs, n, n, mode, nil) })
			allocs := testing.AllocsPerRun(10, func() { FrameSet(Set{IDs: vs, Count: len(vs)}, n, n, mode, nil, len(vs), 0xfeed, 0xbeef) })
			if allocs > encAllocs {
				t.Fatalf("frac %v %v: FrameSet makes %v allocations, encoding alone %v", frac, mode, allocs, encAllocs)
			}
		}
	}
}
