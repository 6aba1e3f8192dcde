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
	self   bool // handed over as the staging slices themselves
}

// TestColumnExpand: the targeted column expand delivers every staged
// vertex, its value alongside and in staging order, to exactly the mesh
// rows its RowNeed bits name; the rank's own part reaches the scan as
// the staging itself and every other part decoded from what its sender
// encoded; the received words are the encoded lengths; and the only
// charge is the mask scan, |F| x ceil(R/64) EdgeCost — on 3x2 and 2x2
// meshes, both schedules, whole and chunked messages.
func TestColumnExpand(t *testing.T) {
	const n = 300
	for _, mesh := range [][2]int{{3, 2}, {2, 2}} {
		l, err := partition.NewLayout2D(n, mesh[0], mesh[1])
		if err != nil {
			t.Fatal(err)
		}
		stores, err := partition.Build2D(l, graph.Params{N: n, K: 4, Seed: 5}.VisitEdges)
		if err != nil {
			t.Fatal(err)
		}
		// frontier is rank r's staged set: two owned vertices of every
		// three, ascending; a vertex's value names it and its sender.
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
		for _, async := range []bool{false, true} {
			for _, chunk := range []int{0, 16} {
				t.Run(fmt.Sprintf("%dx%d/async=%v/chunk=%d", mesh[0], mesh[1], async, chunk), func(t *testing.T) {
					p := l.P()
					parts := make([][]columnPart, p)
					words, decodes, decodeWords := make([]int, p), make([]int, p), make([]int, p)
					charged, wantCharge := make([]float64, p), make([]float64, p)
					m := comm.Mesh{R: l.R, C: l.C}
					if _, err := testWorld(t, p).Run(func(c *comm.Comm) {
						o := Defaults()
						o.Async, o.ChunkWords = async, chunk
						w := &tagWire{}
						col := NewColumn[uint32](c, m.ColGroup(c.Rank()), &o, stores[c.Rank()], w)
						f := frontier(c.Rank())
						for _, gv := range f {
							col.Add(gv, value(c.Rank(), gv))
						}
						own := col.rows[col.g.Me]
						comp := c.CompTime()
						words[c.Rank()] = col.Expand(7, func(vs, xs []uint32) {
							self := len(vs) > 0 && len(own.vs) > 0 && &vs[0] == &own.vs[0] && &xs[0] == &own.xs[0]
							parts[c.Rank()] = append(parts[c.Rank()], columnPart{slices.Clone(vs), slices.Clone(xs), self})
						})
						charged[c.Rank()] = c.CompTime() - comp
						wantCharge[c.Rank()] = float64(len(f)*((l.R+63)/64)) * c.Model().EdgeCost
						decodes[c.Rank()], decodeWords[c.Rank()] = w.decodes, w.decodeWords
					}); err != nil {
						t.Fatal(err)
					}

					// want[dst][src] is what src staged for dst, in staging order.
					want := make([][][2][]uint32, p)
					for dst := range want {
						want[dst] = make([][2][]uint32, p)
					}
					for src, st := range stores {
						for _, gv := range frontier(src) {
							for i := 0; i < l.R; i++ {
								if st.NeedWords(st.LocalOf(graph.Vertex(gv)))[i/64]&(1<<(i%64)) == 0 {
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
							src := int(part.xs[0] >> 16)
							if part.self != (src == dst) {
								t.Errorf("rank %d: the part from rank %d came as the staging itself: %v", dst, src, part.self)
							}
							got[src] = [2][]uint32{part.vs, part.xs}
						}
						encoded := 0 // the words tagWire encodes for dst
						for src := range got {
							if !slices.Equal(got[src][0], want[dst][src][0]) || !slices.Equal(got[src][1], want[dst][src][1]) {
								t.Errorf("rank %d got from rank %d %d pairs, staged for it %d", dst, src, len(got[src][0]), len(want[dst][src][0]))
							}
							if k := len(want[dst][src][0]); src != dst && k > 0 {
								encoded += 1 + 2*k
							}
						}
						if decodes[dst] != l.R-1 || decodeWords[dst] != encoded || words[dst] != encoded {
							t.Errorf("rank %d: %d decodes of %d words, Expand received %d; want %d decodes of the %d encoded",
								dst, decodes[dst], decodeWords[dst], words[dst], l.R-1, encoded)
						}
						if charged[dst] != wantCharge[dst] {
							t.Errorf("rank %d: Expand charged %g compute seconds, the mask scan is %g", dst, charged[dst], wantCharge[dst])
						}
					}
				})
			}
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
