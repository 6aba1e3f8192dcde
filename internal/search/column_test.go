package search

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pool"
)

// tagWire is a Column's wire form for the test: [n, vs..., xs...] with
// one word a value, decoded into staging of its own. It counts the
// decodes and the words they were handed.
type tagWire struct {
	decV        []uint32
	decX        []uint32
	decodes     int
	decodeWords int
}

func (w *tagWire) Encode(vs, xs []uint32, _ uint32, _ int) []uint32 {
	if len(vs) == 0 {
		return nil
	}
	return append(append([]uint32{uint32(len(vs))}, vs...), xs...)
}

func (w *tagWire) Decode(buf []uint32) ([]uint32, []uint32) {
	w.decodes++
	w.decodeWords += len(buf)
	w.decV, w.decX = w.decV[:0], w.decX[:0]
	if len(buf) > 0 {
		n := int(buf[0])
		w.decV, w.decX = append(w.decV, buf[1:1+n]...), append(w.decX, buf[1+n:]...)
	}
	return w.decV, w.decX
}

// columnPart is one part a rank's scan saw.
type columnPart struct {
	vs, xs []uint32
	self   bool // handed over as the column's own-part scratch
}

// columnCase is one TestColumnExpand configuration.
type columnCase struct {
	r, c, n    int
	dense, raw bool // stage the bitmap words (else the ids); no wire form
	async      bool
	chunk      int
}

// TestColumnExpand: the targeted column expand delivers every staged
// vertex — staged as bitmap words or as ascending ids — with its value,
// read at its local index, alongside and in ascending order, to exactly
// the mesh rows whose NeedRow bit names it; the rank's own part reaches
// the scan as the column's scratch and every other part decoded from
// what its sender encoded, or with no wire form as the raw id list; the
// received words are the encoded lengths; and the only charge is the
// mask scan, |F| x ceil(R/64) EdgeCost — on meshes with R = 2, 3, 4 and
// 65 (whose mask scan charges two words a vertex), both schedules, whole
// and chunked messages.
func TestColumnExpand(t *testing.T) {
	var cases []columnCase
	for _, mesh := range [][3]int{{2, 2, 300}, {3, 2, 300}, {4, 2, 300}, {65, 1, 65 * 9}} {
		for _, dense := range []bool{false, true} {
			for _, raw := range []bool{false, true} {
				for _, async := range []bool{false, true} {
					for _, chunk := range []int{0, 16} {
						if mesh[0] == 65 && (async != dense || chunk != 0) {
							continue // the wide mesh: each form once, sparse synchronous, dense overlapped
						}
						cases = append(cases, columnCase{mesh[0], mesh[1], mesh[2], dense, raw, async, chunk})
					}
				}
			}
		}
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%dx%d/dense=%v/raw=%v/async=%v/chunk=%d", tc.r, tc.c, tc.dense, tc.raw, tc.async, tc.chunk), func(t *testing.T) {
			testColumnExpand(t, tc)
		})
	}
}

func testColumnExpand(t *testing.T, tc columnCase) {
	l, err := partition.NewLayout2D(tc.n, tc.r, tc.c)
	if err != nil {
		t.Fatal(err)
	}
	stores, err := partition.Build2D(l, graph.Params{N: tc.n, K: 4, Seed: 5}.VisitEdges)
	if err != nil {
		t.Fatal(err)
	}
	// frontier is rank r's staged set: two owned vertices of every three,
	// ascending; a vertex's value names it and its sender.
	frontier := func(r int) []uint32 {
		var f []uint32
		for v := stores[r].Lo; v < stores[r].Hi; v++ {
			if v%3 != 0 {
				f = append(f, uint32(v))
			}
		}
		return f
	}
	value := func(r int, gv uint32) uint32 { return uint32(r)<<16 | gv }
	p := l.P()
	parts := make([][]columnPart, p)
	words, decodes, decodeWords := make([]int, p), make([]int, p), make([]int, p)
	charged, wantCharge := make([]float64, p), make([]float64, p)
	m := comm.Mesh{R: l.R, C: l.C}
	if _, err := testWorld(t, p).Run(func(c *comm.Comm) {
		o := Defaults()
		o.Async, o.ChunkWords = tc.async, tc.chunk
		st, f := stores[c.Rank()], frontier(c.Rank())
		var bitmap []uint64
		ids := f
		if tc.dense {
			bitmap, ids = make([]uint64, (st.OwnedCount()+63)/64), nil
			for _, gv := range f {
				li := gv - uint32(st.Lo)
				bitmap[li/64] |= 1 << (li % 64)
			}
		}
		// Values by local index; a non-member's must never be read.
		xs := make([]uint32, st.OwnedCount())
		for li := range xs {
			xs[li] = 0xdead
		}
		for _, gv := range f {
			xs[gv-uint32(st.Lo)] = value(c.Rank(), gv)
		}
		w := &tagWire{}
		record := func(vs, xs []uint32, own []uint32) {
			self := len(vs) > 0 && len(own) > 0 && &vs[0] == &own[0]
			parts[c.Rank()] = append(parts[c.Rank()], columnPart{slices.Clone(vs), slices.Clone(xs), self})
		}
		g, comp := m.ColGroup(c.Rank()), c.CompTime()
		if tc.raw {
			col := NewColumn[struct{}](c, g, &o, st, nil)
			words[c.Rank()] = col.Expand(7, bitmap, ids, nil, func(vs []uint32, xs []struct{}) {
				if len(xs) != 0 {
					t.Errorf("rank %d: a raw part came with %d values", c.Rank(), len(xs))
				}
				record(vs, nil, col.own.vs)
			})
		} else {
			col := NewColumn[uint32](c, g, &o, st, w)
			words[c.Rank()] = col.Expand(7, bitmap, ids, xs, func(vs, xs []uint32) { record(vs, xs, col.own.vs) })
		}
		charged[c.Rank()] = c.CompTime() - comp
		wantCharge[c.Rank()] = float64(len(f)*((l.R+63)/64)) * c.Model().EdgeCost
		decodes[c.Rank()], decodeWords[c.Rank()] = w.decodes, w.decodeWords
	}); err != nil {
		t.Fatal(err)
	}

	// want[dst][src] is what src staged for dst, ascending.
	want := make([][][2][]uint32, p)
	for dst := range want {
		want[dst] = make([][2][]uint32, p)
	}
	for src, st := range stores {
		for _, gv := range frontier(src) {
			li := st.LocalOf(graph.Vertex(gv))
			for i := 0; i < l.R; i++ {
				if st.NeedRow(i)[li/64]&(1<<(li%64)) == 0 {
					continue
				}
				dst := m.RankAt(i, st.J)
				want[dst][src][0] = append(want[dst][src][0], gv)
				want[dst][src][1] = append(want[dst][src][1], value(src, gv))
			}
		}
	}
	for dst := range parts {
		if len(parts[dst]) != l.R {
			t.Fatalf("rank %d: scan saw %d parts, want one per column member (%d)", dst, len(parts[dst]), l.R)
		}
		got := make([][2][]uint32, p)
		for _, part := range parts[dst] {
			if len(part.vs) == 0 {
				continue
			}
			src := stores[0].Layout.OwnerRank(graph.Vertex(part.vs[0]))
			if part.self != (src == dst) {
				t.Errorf("rank %d: the part from rank %d came as the own-part scratch: %v", dst, src, part.self)
			}
			got[src] = [2][]uint32{part.vs, part.xs}
		}
		encoded := 0 // the words the wire form encodes for dst
		for src := range got {
			if !slices.Equal(got[src][0], want[dst][src][0]) || !tc.raw && !slices.Equal(got[src][1], want[dst][src][1]) {
				t.Errorf("rank %d got from rank %d %d pairs, staged for it %d", dst, src, len(got[src][0]), len(want[dst][src][0]))
			}
			if k := len(want[dst][src][0]); src != dst && k > 0 {
				if tc.raw {
					encoded += k
				} else {
					encoded += 1 + 2*k
				}
			}
		}
		wantDecodes, wantDecodeWords := l.R-1, encoded
		if tc.raw {
			wantDecodes, wantDecodeWords = 0, 0
		}
		if decodes[dst] != wantDecodes || decodeWords[dst] != wantDecodeWords || words[dst] != encoded {
			t.Errorf("rank %d: %d decodes of %d words, Expand received %d; want %d decodes of %d, %d received",
				dst, decodes[dst], decodeWords[dst], words[dst], wantDecodes, wantDecodeWords, encoded)
		}
		if charged[dst] != wantCharge[dst] {
			t.Errorf("rank %d: Expand charged %g compute seconds, the mask scan is %g", dst, charged[dst], wantCharge[dst])
		}
	}
}

// sharingKernel records every Chunk call Scan makes and bins each item
// of its range, so the merge is checked too.
type sharingKernel struct {
	mu    *sync.Mutex
	calls *[][3]int // lo, hi, shared (0 or 1)
}

func (k sharingKernel) Chunk(o *Bins[struct{}], lo, hi int, shared bool) {
	s := 0
	if shared {
		s = 1
	}
	k.mu.Lock()
	*k.calls = append(*k.calls, [3]int{lo, hi, s})
	k.mu.Unlock()
	for i := lo; i < hi; i++ {
		o.V[0] = append(o.V[0], uint32(i))
	}
	o.Scanned += hi - lo
}

// TestScanReportsSharing: Scan tells the kernel its chunks share state
// exactly when they run concurrently — never with one worker, nor with
// four over a part of at most one grain, which both run inline as one
// call over the whole part; always with four over more than a grain,
// one call per chunk — and the bins and counts are the same either way.
func TestScanReportsSharing(t *testing.T) {
	const grain = 8
	for _, tc := range []struct {
		workers, n int
		shared     bool
	}{
		{1, 3*grain + 1, false},
		{4, grain, false},
		{4, 3*grain + 1, true},
	} {
		t.Run(fmt.Sprintf("workers=%d/n=%d", tc.workers, tc.n), func(t *testing.T) {
			var calls [][3]int
			var b Bins[struct{}]
			if _, err := testWorld(t, 1).Run(func(c *comm.Comm) {
				b.V = make([][]uint32, 1)
				Scan(&b, c, pool.New(tc.workers), tc.n, grain, 0, sharingKernel{new(sync.Mutex), &calls})
			}); err != nil {
				t.Fatal(err)
			}
			want := 1
			if tc.shared {
				want = pool.Chunks(tc.n, grain)
			}
			if len(calls) != want {
				t.Fatalf("%d Chunk calls, want %d", len(calls), want)
			}
			covered := 0
			for _, call := range calls {
				if (call[2] == 1) != tc.shared {
					t.Errorf("Chunk(%d, %d) told shared=%v, want %v", call[0], call[1], call[2] == 1, tc.shared)
				}
				covered += call[1] - call[0]
			}
			if covered != tc.n || b.Scanned != tc.n || len(b.V[0]) != tc.n {
				t.Fatalf("calls cover %d items, Scanned %d, binned %d; want %d", covered, b.Scanned, len(b.V[0]), tc.n)
			}
			for i, v := range b.V[0] {
				if v != uint32(i) {
					t.Fatalf("bin[%d] = %d: chunks merged out of order", i, v)
				}
			}
		})
	}
}

// BenchmarkColumnExpand times one targeted column expand on every rank
// of a 4x4 mesh (n = 100,000, k = 10, raw id lists on the wire, the
// bfs2d-topdown shape): a dense frontier, half the owned vertices staged
// as bitmap words, and a sparse one, one vertex in 64 staged as ids. An
// op is one Expand on all 16 ranks; the scan only counts what arrives.
func BenchmarkColumnExpand(b *testing.B) {
	const n = 100000
	l, err := partition.NewLayout2D(n, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	stores, err := partition.Build2D(l, graph.Params{N: n, K: 10, Seed: 9}.VisitEdges)
	if err != nil {
		b.Fatal(err)
	}
	m := comm.Mesh{R: l.R, C: l.C}
	for _, bc := range []struct {
		name  string
		dense bool
		every int
	}{{"dense", true, 2}, {"sparse", false, 64}} {
		b.Run(bc.name, func(b *testing.B) {
			w, err := comm.NewWorld(comm.Config{P: l.P()})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := w.Run(func(c *comm.Comm) {
				st := stores[c.Rank()]
				var words []uint64
				var ids []uint32
				if bc.dense {
					words = make([]uint64, (st.OwnedCount()+63)/64)
				}
				for li := 0; li < st.OwnedCount(); li += bc.every {
					if bc.dense {
						words[li/64] |= 1 << (li % 64)
					} else {
						ids = append(ids, uint32(st.Lo)+uint32(li))
					}
				}
				o := Defaults()
				col := NewColumn[struct{}](c, m.ColGroup(c.Rank()), &o, st, nil)
				got := 0
				for i := 0; i < b.N; i++ {
					col.Expand(i, words, ids, nil, func(vs []uint32, _ []struct{}) { got += len(vs) })
				}
				if got == 0 {
					panic("no frontier vertex arrived")
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}
