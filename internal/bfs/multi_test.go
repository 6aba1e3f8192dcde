package bfs

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/checkpoint"
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
// they run Algorithm 1, lane-by-lane against the serial oracle: five
// lanes on blocks of 500/P vertices, then 1, 32, 33 and 64 lanes on
// n = 1000 over 1 x 3 and 1 x 7, whose owned blocks end in a partial
// 64-vertex tile and whose batches leave lanes of a mask unused — the
// edges of mark's tile-wise writes. A 64-lane batch checkpointed at its
// middle sweep and restored equals the uninterrupted run.
func TestMultiRun1DMatchesSerial(t *testing.T) {
	check := func(g *graph.CSR, p int, srcs []graph.Vertex, wire frontier.WireMode, oracle map[graph.Vertex][]int32) *MultiResult {
		t.Helper()
		st1, w := build1D(t, g, p)
		opts := DefaultOptions(0)
		opts.Wire = wire
		res, err := MultiRun2D(w, st1, srcs, opts)
		if err != nil {
			t.Fatalf("P=%d wire=%v: %v", p, wire, err)
		}
		for lane, src := range srcs {
			if oracle[src] == nil {
				oracle[src] = graph.BFS(g, src)
			}
			levelsEqual(t, res.LaneLevels[lane], oracle[src],
				fmt.Sprintf("1D P=%d b=%d wire=%v lane %d (src %d)", p, len(srcs), wire, lane, src))
		}
		return res
	}
	wires := []frontier.WireMode{frontier.WireSparse, frontier.WireDense, frontier.WireAuto, frontier.WireHybrid}
	g := testGraph(t, 500, 4, 12)
	oracle := map[graph.Vertex][]int32{}
	for _, p := range []int{1, 3, 4} {
		for _, wire := range wires {
			check(g, p, multiSources(g, 5), wire, oracle)
		}
	}
	g = testGraph(t, 1000, 4, 15)
	oracle = map[graph.Vertex][]int32{}
	for _, p := range []int{3, 7} {
		for _, b := range []int{1, 32, 33, 64} {
			for _, wire := range wires {
				check(g, p, multiSources(g, b), wire, oracle)
			}
		}
	}

	srcs := multiSources(g, MaxLanes)
	opts := DefaultOptions(0)
	opts.Wire = frontier.WireHybrid
	full := check(g, 7, srcs, opts.Wire, oracle)
	opts.Checkpoint = checkpoint.NewPlan(len(full.PerLevel) / 2)
	st1, w := build1D(t, g, 7)
	if _, err := MultiRun2D(w, st1, srcs, opts); err != nil {
		t.Fatal(err)
	}
	opts.Checkpoint, opts.Restore = nil, opts.Checkpoint.Snapshot()
	restored, err := MultiRun2D(w, st1, srcs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scrubMulti(restored), scrubMulti(full)) {
		t.Fatal("a 64-lane batch restored at its middle sweep differs from the uninterrupted run")
	}
}

// TestTranspose64 holds transpose64 to the naive bit-by-bit transpose
// on random, identity, all-ones and every single-bit matrix.
func TestTranspose64(t *testing.T) {
	naive := func(a [64]uint64) (out [64]uint64) {
		for i := range a {
			for j := range 64 {
				out[j] |= (a[i] >> j & 1) << i
			}
		}
		return out
	}
	var cases [][64]uint64
	rng := rand.New(rand.NewSource(64))
	for range 20 {
		var a [64]uint64
		for i := range a {
			a[i] = rng.Uint64()
		}
		cases = append(cases, a)
	}
	var id, ones [64]uint64
	for i := range id {
		id[i], ones[i] = 1<<i, ^uint64(0)
	}
	cases = append(cases, id, ones)
	for i := range 64 {
		for j := range 64 {
			var a [64]uint64
			a[i] = 1 << j
			cases = append(cases, a)
		}
	}
	for ci, a := range cases {
		got := a
		transpose64(&got)
		if got != naive(a) {
			t.Fatalf("case %d: transpose64 differs from the naive transpose", ci)
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
			buf := lanePayload{b: tc.b, wire: wire}.Encode(search.Set{IDs: vs, Count: len(vs)}, ms, 0, tc.n)
			// Copy to catch aliasing into caller storage.
			buf = append([]uint32(nil), buf...)
			// The staging is reused from one decode to the next, as the
			// engines do: stale masks must not leak into a later batch.
			stV, stM = lanePayload{b: tc.b}.Decode(buf, stV, stM)
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
	if gvs, gms := (lanePayload{b: 8}).Decode(nil, stV, stM); len(gvs) != 0 || len(gms) != 0 {
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
	planes := lanePayload{b: 8, wire: frontier.WireSparse}.Encode(search.Set{IDs: wide, Count: len(wide)}, ms, 0, 1000)
	if planes[1] != laneFormPlanes {
		t.Errorf("b=8 s=1000 shipped form %d, want planes", planes[1])
	}
	// 2 (header) + set + 8 planes of ceil(1000/32) words.
	if want := 2 + 1000 + 8*frontier.BitWords(1000); len(planes) != want {
		t.Errorf("plane payload %d words, want %d", len(planes), want)
	}
	inter := lanePayload{b: 64, wire: frontier.WireSparse}.Encode(search.Set{IDs: wide[:4], Count: len(wide[:4])}, ms[:4], 0, 1000)
	if inter[1] != laneFormInterleaved {
		t.Errorf("b=64 s=4 shipped form %d, want interleaved", inter[1])
	}
	if want := 2 + 4 + 4*2; len(inter) != want {
		t.Errorf("interleaved payload %d words, want %d", len(inter), want)
	}
}

// TestLanePayloadRowsMatchList: a lane payload encoded from a set's
// bitmap (a fold member's rows) is the payload encoded from its id list,
// under every wire mode, for 1, 8, 32, 33 and 64 lanes, in the mask forms
// each admits; and it decodes to the batch. The wide sets ship planes
// after a hybrid stream rewritten shorter, whose leftover words lie where
// the planes are ORed in.
func TestLanePayloadRowsMatchList(t *testing.T) {
	const lo, n = 4096, 4096
	rng := rand.New(rand.NewSource(33))
	forms := map[uint32]int{}
	for _, b := range []int{1, 8, 32, 33, 64} {
		for _, frac := range []float64{0.001, 0.02, 0.5} {
			var vs []uint32
			var ms []uint64
			rows := make([]uint64, n/64)
			for i := 0; i < n; i++ {
				if rng.Float64() < frac {
					vs = append(vs, lo+uint32(i))
					ms = append(ms, 1<<uint(rng.Intn(b))|rng.Uint64()>>uint(64-b))
					rows[i/64] |= 1 << (i % 64)
				}
			}
			for _, wire := range []frontier.WireMode{frontier.WireSparse, frontier.WireDense, frontier.WireAuto, frontier.WireHybrid} {
				p := lanePayload{b: b, wire: wire}
				list := p.Encode(search.Set{IDs: vs, Count: len(vs)}, ms, lo, n)
				got := p.Encode(search.Set{Bits: frontier.Words32(rows), Count: len(vs)}, ms, lo, n)
				label := fmt.Sprintf("b=%d frac=%v wire=%v", b, frac, wire)
				if !slices.Equal(got, list) {
					t.Fatalf("%s: the rows-encoded payload differs from the list-encoded one", label)
				}
				gvs, gms := p.Decode(got, nil, nil)
				if !slices.Equal(gvs, vs) || !slices.Equal(gms, ms) {
					t.Fatalf("%s: the payload does not decode to its batch", label)
				}
				forms[got[1]]++
			}
		}
	}
	if forms[laneFormPlanes] == 0 || forms[laneFormInterleaved] == 0 {
		t.Fatalf("mask forms shipped %v, want both", forms)
	}
}
