package bfs

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/localindex"
)

// TestLevelBitmapMatchesBins holds the top-down level's sent-cache path
// — scan marks in seen, sets read off seen &^ sent — to the path it
// replaced: every neighbor binned by owner mesh column, claimed in a
// sent bitset indexed by the row map's first-appearance numbering,
// charged its row lookup, and merged per bin by a localindex.Combiner.
// Each level of each side runs its real expand twice over the same
// frontier: once into the side's marks, once through the cache-off bins
// that the reference then claims and merges. Per level it compares the
// edge entries and probes charged, and per fold-group member the set
// and the clock its making charged; then it delivers the real sets and
// marks. The loops step the sides as driveUni and driveBidir do: one
// side, two alternating sides (bi-directional), or one side with
// bottom-up levels between top-down ones (direction-optimizing). Levels must match the
// serial oracle at the end.
func TestLevelBitmapMatchesBins(t *testing.T) {
	star := func(n int) *graph.CSR {
		var es [][2]graph.Vertex
		for v := 1; v < n; v++ {
			es = append(es, [2]graph.Vertex{0, graph.Vertex(v)})
		}
		g, err := graph.FromEdges(n, es)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := []struct {
		name string
		g    *graph.CSR
		r, c int
	}{
		{"poisson/1x4", testGraph(t, 12000, 8, 5), 1, 4},
		{"poisson/4x1", testGraph(t, 12000, 8, 5), 4, 1},
		{"poisson/2x2", testGraph(t, 12000, 8, 5), 2, 2},
		{"poisson/3x5-bs665", testGraph(t, 9975, 8, 5), 3, 5},
		{"star-n=P/2x2", star(4), 2, 2},
		{"star-n=P/3x5", star(15), 3, 5},
	}
	for _, tc := range cases {
		fx := build2D(t, tc.g, tc.r, tc.c)
		if bs := fx.l2.BlockSize(); tc.g.N == tc.r*tc.c && bs != 1 {
			t.Fatalf("%s: block size %d, want 1", tc.name, bs)
		}
		rows := refRowMaps(fx)
		for _, drv := range []string{"uni", "bidir", "dirop"} {
			for _, workers := range []int{1, 4} {
				for _, async := range []bool{false, true} {
					label := fmt.Sprintf("%s/%s/workers=%d/async=%v", tc.name, drv, workers, async)
					opts := DefaultOptions(fx.src)
					opts.Workers, opts.Async = workers, async
					checkLevelBitmap(t, label, fx, rows, opts, drv)
				}
			}
		}
	}
}

// refRowMaps rebuilds each rank's row map as the loader builds it: a Put
// per row vertex in first appearance over the edge stream, from
// NewMap(16).
func refRowMaps(fx fixture) []*localindex.Map {
	l := fx.l2
	maps := make([]*localindex.Map, l.P())
	for rk := range maps {
		maps[rk] = localindex.NewMap(16)
	}
	add := func(u, v graph.Vertex) {
		m := maps[l.StoringRank(u, v)]
		if _, ok := m.Get(uint32(u)); !ok {
			m.Put(uint32(u), uint32(m.Len()))
		}
	}
	visitCSR(fx.g)(func(u, v graph.Vertex) {
		add(u, v)
		add(v, u)
	})
	return maps
}

func checkLevelBitmap(t *testing.T, label string, fx fixture, rows []*localindex.Map, opts Options, drv string) {
	l := fx.l2.View()
	// The bi-directional loop's second side starts at the vertex the
	// source reaches last.
	far := fx.src
	for v, lv := range fx.serial {
		if lv > fx.serial[far] {
			far = graph.Vertex(v)
		}
	}
	var mu sync.Mutex
	failed := false
	fail := func(rank, level int, format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if !failed {
			failed = true
			t.Errorf("%s: rank %d level %d: %s", label, rank, level, fmt.Sprintf(format, args...))
		}
	}
	_, err := fx.world.Run(func(c *comm.Comm) {
		rank := c.Rank()
		e := newEngine2D(c, fx.st2[rank], l, opts, nil)
		ref := newSetBins(c, e.rowG, l, &e.opts, &e.hist)
		sides := []*sideState{e.newSide(fx.src, nil)}
		if drv == "bidir" {
			sides = append(sides, e.newSide(far, nil))
		}
		refSent := make([]*localindex.Bitset, len(sides))
		for i := range refSent {
			refSent[i] = localindex.NewBitset(rows[rank].Len())
		}
		for lvl := 0; ; lvl++ {
			var fs []uint64
			for _, s := range sides {
				fs = append(fs, c.AllReduceSum(uint64(s.F.Len())))
			}
			i := lvl % len(sides)
			if fs[i] == 0 {
				i = len(sides) - 1 - i
			}
			if fs[i] == 0 {
				break
			}
			s, tag := sides[i], lvl*64
			if drv == "dirop" && lvl%3 == 1 {
				e.stepBottomUp(s, tag)
				continue
			}

			// The level as the engine runs it: marks in s.seen.
			e.bins.raw.Reset()
			var rec rankLevel
			expand(e, s, &e.bins.raw, e.col, nil, tag, &rec)
			// The reference: the same frontier through the cache-off
			// bins, claimed entry by entry and charged its row lookups.
			ref.raw.Reset()
			var refRec rankLevel
			expand(e, &sideState{F: s.F}, &ref.raw, e.col, nil, tag+1<<25, &refRec)
			probes := ref.raw.Probes
			for m, bin := range ref.raw.V {
				kept := bin[:0]
				for _, u := range bin {
					ri, ok, p := rows[rank].GetCounted(u)
					if !ok {
						fail(rank, lvl, "row vertex %d is not in the row map", u)
						continue
					}
					probes += uint64(p)
					if !refSent[i].TestAndSet(ri) {
						kept = append(kept, u)
					}
				}
				ref.raw.V[m] = kept
			}
			if got := e.bins.raw; got.Scanned != ref.raw.Scanned || got.Probes != probes {
				fail(rank, lvl, "scanned %d in %d probes, reference %d in %d", got.Scanned, got.Probes, ref.raw.Scanned, probes)
			}
			sets := make([][]uint32, e.rowG.Size())
			e.bins.sent, e.bins.seen = s.sent, s.seen
			for m := range sets {
				t0 := c.Clock()
				got := e.bins.Append(make([]uint32, 0, e.bins.Len(m)), m)
				t1 := c.Clock()
				want := ref.Append(make([]uint32, 0, ref.Len(m)), m)
				t2 := c.Clock()
				if !slices.Equal(got, want) {
					at := 0
					for at < min(len(got), len(want)) && got[at] == want[at] {
						at++
					}
					fail(rank, lvl, "member %d: set of %d, reference of %d, first apart at position %d", m, len(got), len(want), at)
				}
				// Equal charges, up to the rounding of clocks that differ.
				if d, dr := t1-t0, t2-t1; math.Abs(d-dr) > 1e-9*max(d, dr) {
					fail(rank, lvl, "member %d: making the set charged %g s, reference %g s", m, t1-t0, t2-t1)
				}
				sets[m] = slices.Clone(got)
			}
			if slices.ContainsFunc(s.seen, func(w uint64) bool { return w != 0 }) {
				fail(rank, lvl, "marks left after the sets were made")
			}
			o := collective.Opts{Tag: tag + 1<<24, Chunk: opts.ChunkWords, Async: opts.Async}
			nbar, _ := collective.Fold(c, e.rowG, o, opts.Fold.String(), collective.SetList(sets))
			s.mark(e.opts, e.st.Lo, nbar, nil, &rec)
		}
		// Every side ran to exhaustion: its levels are the serial ones.
		for i, s := range sides {
			serial := fx.serial
			if i == 1 {
				serial = graph.BFS(fx.g, far)
			}
			if !slices.Equal(s.L, serial[e.st.Lo:e.st.Hi]) {
				fail(rank, -1, "side %d: levels differ from the serial oracle", i)
			}
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}
