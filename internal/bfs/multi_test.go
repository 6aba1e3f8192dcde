package bfs

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/search"
)

// multiSources picks b spread-out sources, including vertices outside
// the largest component when the graph has them.
func multiSources(g *graph.CSR, b int) []graph.Vertex {
	srcs := make([]graph.Vertex, 0, b)
	step := g.N / b
	if step == 0 {
		step = 1
	}
	for v := 0; len(srcs) < b; v += step {
		srcs = append(srcs, graph.Vertex(v%g.N))
	}
	return srcs
}

// TestMultiRun2DMatchesIndependentRuns is the lane-by-lane
// differential: every lane of a batched run must equal an independent
// single-source BFS from that lane's source, on every mesh shape and
// wire mode.
func TestMultiRun2DMatchesIndependentRuns(t *testing.T) {
	g := testGraph(t, 600, 5, 11)
	srcs := multiSources(g, 7)
	for _, mesh := range [][2]int{{1, 1}, {1, 4}, {4, 1}, {2, 2}, {4, 4}} {
		fx := build2D(t, g, mesh[0], mesh[1])
		for _, wire := range []frontier.WireMode{
			frontier.WireSparse, frontier.WireDense, frontier.WireAuto, frontier.WireHybrid,
		} {
			opts := DefaultOptions(0)
			opts.Wire = wire
			res, err := MultiRun2D(fx.world, fx.st2, srcs, opts)
			if err != nil {
				t.Fatalf("%dx%d wire=%v: %v", mesh[0], mesh[1], wire, err)
			}
			if res.B != len(srcs) || len(res.LaneLevels) != len(srcs) {
				t.Fatalf("%dx%d: lane count %d/%d, want %d", mesh[0], mesh[1],
					res.B, len(res.LaneLevels), len(srcs))
			}
			for lane, src := range srcs {
				single := DefaultOptions(src)
				single.Wire = wire
				ind, err := Run2D(fx.world, fx.st2, single)
				if err != nil {
					t.Fatal(err)
				}
				levelsEqual(t, res.LaneLevels[lane], ind.Levels,
					fmt.Sprintf("%dx%d wire=%v lane %d (src %d)", mesh[0], mesh[1], wire, lane, src))
			}
		}
	}
}

// TestMultiRun1DMatchesSerial checks the sweeps on 1 x P meshes, where
// they run Algorithm 1, lane-by-lane against the serial oracle.
func TestMultiRun1DMatchesSerial(t *testing.T) {
	g := testGraph(t, 500, 4, 12)
	srcs := multiSources(g, 5)
	for _, p := range []int{1, 3, 4} {
		st1, w := build1D(t, g, p)
		for _, wire := range []frontier.WireMode{
			frontier.WireSparse, frontier.WireDense, frontier.WireAuto, frontier.WireHybrid,
		} {
			opts := DefaultOptions(0)
			opts.Wire = wire
			res, err := MultiRun2D(w, st1, srcs, opts)
			if err != nil {
				t.Fatalf("P=%d wire=%v: %v", p, wire, err)
			}
			for lane, src := range srcs {
				levelsEqual(t, res.LaneLevels[lane], graph.BFS(g, src),
					fmt.Sprintf("1D P=%d wire=%v lane %d (src %d)", p, wire, lane, src))
			}
		}
	}
}

// TestMultiRunFullBatch runs the full 64-lane capacity and checks the
// nearest-source Levels agree with the lane minimum and that total
// words stay below 64 independent runs on the same store.
func TestMultiRunFullBatch(t *testing.T) {
	g := testGraph(t, 2000, 6, 13)
	fx := build2D(t, g, 2, 2)
	srcs := multiSources(g, MaxLanes)
	opts := DefaultOptions(0)
	opts.Wire = frontier.WireAuto
	res, err := MultiRun2D(fx.world, fx.st2, srcs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var indWords int64
	for lane, src := range srcs {
		single := DefaultOptions(src)
		single.Wire = frontier.WireAuto
		ind, err := Run2D(fx.world, fx.st2, single)
		if err != nil {
			t.Fatal(err)
		}
		indWords += ind.TotalExpandWords + ind.TotalFoldWords
		for v, l := range ind.Levels {
			if res.LaneLevels[lane][v] != l {
				t.Fatalf("lane %d level[%d] = %d, want %d", lane, v, res.LaneLevels[lane][v], l)
			}
			if l != graph.Unreached && (res.Levels[v] == graph.Unreached || res.Levels[v] > l) {
				t.Fatalf("nearest-source level[%d] = %d above lane %d's %d", v, res.Levels[v], lane, l)
			}
		}
	}
	multiWords := res.TotalExpandWords + res.TotalFoldWords
	if multiWords >= indWords {
		t.Errorf("batched run moved %d words, not fewer than %d over %d independent runs",
			multiWords, indWords, MaxLanes)
	}
	if res.LaneDistance(srcs[0], srcs[0]) != 0 {
		t.Error("lane's own source not at level 0")
	}
}

// TestMultiRunDuplicateSources gives two lanes the same source: both
// must produce that source's BFS levels independently.
func TestMultiRunDuplicateSources(t *testing.T) {
	g := testGraph(t, 300, 4, 14)
	fx := build2D(t, g, 2, 2)
	src := graph.LargestComponentVertex(g)
	res, err := MultiRun2D(fx.world, fx.st2, []graph.Vertex{src, src, 0}, DefaultOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	want := graph.BFS(g, src)
	levelsEqual(t, res.LaneLevels[0], want, "duplicate lane 0")
	levelsEqual(t, res.LaneLevels[1], want, "duplicate lane 1")
	levelsEqual(t, res.LaneLevels[2], graph.BFS(g, 0), "lane 2")
}

// laneMinimum is the reference for MultiResult.Levels: every vertex's
// level from its nearest source, the minimum over the lanes that
// reached it — the pass over all lanes that mark's stamp replaced.
func laneMinimum(laneLevels [][]int32, n int) []int32 {
	levels := make([]int32, n)
	for v := range levels {
		min := graph.Unreached
		for _, lane := range laneLevels {
			if l := lane[v]; l != graph.Unreached && (min == graph.Unreached || l < min) {
				min = l
			}
		}
		levels[v] = min
	}
	return levels
}

// TestMultiNearestIsLaneMinimum: the nearest-source levels mark stamps
// in place are exactly the per-vertex lane minimum, at 1x1, 2x2, 4x4 and
// 1x16 (Algorithm 1), for a batch with a
// duplicate source and an isolated one — and so are the partial answers
// of a run cut short by MaxLevels and of one stopped by a simulated-time
// budget.
func TestMultiNearestIsLaneMinimum(t *testing.T) {
	g := testGraph(t, 600, 3, 17)
	var isolated []graph.Vertex
	for v := 0; v < g.N; v++ {
		if len(g.Neighbors(graph.Vertex(v))) == 0 {
			isolated = append(isolated, graph.Vertex(v))
		}
	}
	if len(isolated) < 2 {
		t.Fatalf("fixture has %d isolated vertices, want a source and an unreachable one", len(isolated))
	}
	srcs := multiSources(g, 6)
	srcs = append(srcs, srcs[2], isolated[0])

	type engine struct {
		name string
		run  func(Options) (*MultiResult, error)
	}
	var engines []engine
	for _, mesh := range [][2]int{{1, 1}, {2, 2}, {4, 4}, {1, 16}} {
		fx := build2D(t, g, mesh[0], mesh[1])
		engines = append(engines, engine{fmt.Sprintf("%dx%d", mesh[0], mesh[1]),
			func(o Options) (*MultiResult, error) { return MultiRun2D(fx.world, fx.st2, srcs, o) }})
	}

	check := func(res *MultiResult, label string) {
		t.Helper()
		levelsEqual(t, res.Levels, laneMinimum(res.LaneLevels, g.N), label)
	}
	for _, e := range engines {
		full, err := e.run(DefaultOptions(0))
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		check(full, e.name+" full")
		for lane, src := range srcs {
			levelsEqual(t, full.LaneLevels[lane], graph.BFS(g, src), fmt.Sprintf("%s lane %d", e.name, lane))
		}
		if full.Levels[isolated[1]] != graph.Unreached {
			t.Fatalf("%s: isolated vertex %d at level %d", e.name, isolated[1], full.Levels[isolated[1]])
		}

		short := DefaultOptions(0)
		short.MaxLevels = 2
		res, err := e.run(short)
		if err != nil {
			t.Fatalf("%s MaxLevels: %v", e.name, err)
		}
		check(res, e.name+" MaxLevels=2")

		budget := DefaultOptions(0)
		budget.Cancel = search.SimBudgetCancel(full.SimTime / 2)
		res, err = e.run(budget)
		var cxl *search.Canceled
		if !errors.As(err, &cxl) {
			t.Fatalf("%s: a half-time budget returned %v, not a cancellation", e.name, err)
		}
		check(res, e.name+" sim budget")
		if slices.Equal(res.Levels, full.Levels) {
			t.Errorf("%s: the budget-stopped answer is the full one", e.name)
		}
	}
}

// TestMultiLaneDistance: LaneDistance answers from the first lane
// searching from s, and Unreached — never a panic — for a target that
// was not reached or is not a vertex, or a source not in the batch.
func TestMultiLaneDistance(t *testing.T) {
	g := testGraph(t, 300, 4, 14)
	fx := build2D(t, g, 2, 2)
	src := fx.src
	res, err := MultiRun2D(fx.world, fx.st2, []graph.Vertex{src, 0, src}, DefaultOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	// Mark the duplicate lane, so an answer from it shows.
	res.LaneLevels[2] = slices.Repeat([]int32{99}, g.N)
	far, unreached, outside := src, src, src
	for v, l := range fx.serial {
		switch {
		case l == graph.Unreached:
			unreached = graph.Vertex(v)
		case l > fx.serial[far]:
			far = graph.Vertex(v)
		}
		if v != int(src) && v != 0 {
			outside = graph.Vertex(v)
		}
	}
	if fx.serial[unreached] != graph.Unreached {
		t.Fatal("fixture reaches every vertex from its source")
	}
	for _, tc := range []struct {
		name string
		s, t graph.Vertex
		want int32
	}{
		{"own source", src, src, 0},
		{"farthest vertex, first of the duplicate lanes", src, far, fx.serial[far]},
		{"second lane", 0, 0, 0},
		{"not reached", src, unreached, graph.Unreached},
		{"t = N", src, graph.Vertex(g.N), graph.Unreached},
		{"t = MaxUint32", src, math.MaxUint32, graph.Unreached},
		{"s outside the batch", outside, src, graph.Unreached},
	} {
		if got := res.LaneDistance(tc.s, tc.t); got != tc.want {
			t.Errorf("%s: LaneDistance(%d, %d) = %d, want %d", tc.name, tc.s, tc.t, got, tc.want)
		}
	}
}

// TestMultiRunValidation exercises the batch validation errors.
func TestMultiRunValidation(t *testing.T) {
	g := testGraph(t, 100, 3, 15)
	fx := build2D(t, g, 1, 2)
	if _, err := MultiRun2D(fx.world, fx.st2, nil, DefaultOptions(0)); err == nil {
		t.Error("empty batch accepted")
	}
	big := make([]graph.Vertex, MaxLanes+1)
	if _, err := MultiRun2D(fx.world, fx.st2, big, DefaultOptions(0)); err == nil {
		t.Error("oversized batch accepted")
	}
	if _, err := MultiRun2D(fx.world, fx.st2, []graph.Vertex{graph.Vertex(g.N)}, DefaultOptions(0)); err == nil {
		t.Error("out-of-range source accepted")
	}
}

// TestMultiRunMaxLevels bounds the sweep depth.
func TestMultiRunMaxLevels(t *testing.T) {
	g := testGraph(t, 400, 5, 16)
	fx := build2D(t, g, 2, 2)
	opts := DefaultOptions(0)
	opts.MaxLevels = 2
	res, err := MultiRun2D(fx.world, fx.st2, multiSources(g, 3), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerLevel) > 2 {
		t.Errorf("%d sweeps recorded above MaxLevels=2", len(res.PerLevel))
	}
	for _, lanes := range res.LaneLevels {
		for _, l := range lanes {
			if l > 2 {
				t.Fatalf("level %d labeled beyond MaxLevels", l)
			}
		}
	}
}

// TestLaneCodecRoundTrip exercises both mask layouts (interleaved and
// transposed planes) across batch widths and set shapes.
func TestLaneCodecRoundTrip(t *testing.T) {
	cases := []struct {
		b, n  int
		vs    []uint32
		masks func(i int) uint64
	}{
		{8, 4096, []uint32{1, 2, 3}, func(i int) uint64 { return 1 << uint(i) }},          // tiny set -> interleaved
		{8, 4096, nil, func(i int) uint64 { return uint64(i)%255 + 1 }},                   // wide set -> planes
		{33, 4096, nil, func(i int) uint64 { return uint64(i) * 2654435761 % (1 << 33) }}, // two-word masks
		{64, 4096, nil, func(i int) uint64 { return ^uint64(0) - uint64(i) }},             // full width
		{1, 100, []uint32{0, 99}, func(i int) uint64 { return 1 }},                        // single lane
	}
	var stV []uint32
	var stM []uint64
	for ci, tc := range cases {
		vs := tc.vs
		if vs == nil {
			for v := 0; v < tc.n; v += 2 {
				vs = append(vs, uint32(v))
			}
		}
		ms := make([]uint64, len(vs))
		for i := range ms {
			ms[i] = tc.masks(i)
			if tc.b < 64 {
				ms[i] &= (1 << uint(tc.b)) - 1
				if ms[i] == 0 {
					ms[i] = 1
				}
			}
		}
		for _, wire := range []frontier.WireMode{
			frontier.WireSparse, frontier.WireDense, frontier.WireAuto, frontier.WireHybrid,
		} {
			buf := encodeLanes(nil, vs, ms, tc.b, 0, tc.n, wire, nil)
			// Copy to catch aliasing into caller storage.
			buf = append([]uint32(nil), buf...)
			// The staging is reused from one decode to the next, as the
			// engines do: stale masks must not leak into a later batch.
			stV, stM = decodeLanes(nil, buf, tc.b, stV, stM)
			gvs, gms := stV, stM
			if len(gvs) != len(vs) {
				t.Fatalf("case %d wire=%v: %d members, want %d", ci, wire, len(gvs), len(vs))
			}
			for i := range vs {
				if gvs[i] != vs[i] || gms[i] != ms[i] {
					t.Fatalf("case %d wire=%v member %d: (%d,%x), want (%d,%x)",
						ci, wire, i, gvs[i], gms[i], vs[i], ms[i])
				}
			}
		}
	}
	if gvs, gms := decodeLanes(nil, nil, 8, stV, stM); len(gvs) != 0 || len(gms) != 0 {
		t.Error("nil payload should decode to an empty batch")
	}
}

// TestLaneCodecPicksCheaperForm checks the form choice is actually by
// size: a narrow batch over a wide set must ship planes, a wide batch
// over a narrow set interleaved.
func TestLaneCodecPicksCheaperForm(t *testing.T) {
	wide := make([]uint32, 1000)
	ms := make([]uint64, 1000)
	for i := range wide {
		wide[i] = uint32(i)
		ms[i] = 1
	}
	planes := encodeLanes(nil, wide, ms, 8, 0, 1000, frontier.WireSparse, nil)
	if planes[1] != laneFormPlanes {
		t.Errorf("b=8 s=1000 shipped form %d, want planes", planes[1])
	}
	// 2 (header) + set + 8 planes of ceil(1000/32) words.
	if want := 2 + 1000 + 8*frontier.BitWords(1000); len(planes) != want {
		t.Errorf("plane payload %d words, want %d", len(planes), want)
	}
	inter := encodeLanes(nil, wide[:4], ms[:4], 64, 0, 1000, frontier.WireSparse, nil)
	if inter[1] != laneFormInterleaved {
		t.Errorf("b=64 s=4 shipped form %d, want interleaved", inter[1])
	}
	if want := 2 + 4 + 4*2; len(inter) != want {
		t.Errorf("interleaved payload %d words, want %d", len(inter), want)
	}
}
