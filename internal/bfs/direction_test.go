package bfs

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/partition"
)

var allDirections = []Direction{TopDown, BottomUp, DirectionOptimizing}

// build1D distributes g under the conventional 1D partitioning: the 2D
// layout on a 1 x p mesh.
func build1D(t *testing.T, g *graph.CSR, p int) ([]*partition.Store2D, *comm.World) {
	t.Helper()
	fx := build2D(t, g, 1, p)
	return fx.st2, fx.world
}

// TestDirectionPoliciesMatchSerial2D: every direction policy must
// label exactly the serial reference levels on the 2D partitioning,
// across mesh shapes.
func TestDirectionPoliciesMatchSerial2D(t *testing.T) {
	g := testGraph(t, 600, 5, 1)
	for _, mesh := range [][2]int{{1, 1}, {2, 2}, {1, 4}, {4, 1}, {2, 3}} {
		fx := build2D(t, g, mesh[0], mesh[1])
		for _, dir := range allDirections {
			opts := DefaultOptions(fx.src)
			opts.Direction = dir
			res, err := Run2D(fx.world, fx.st2, opts)
			if err != nil {
				t.Fatalf("mesh %v dir %v: %v", mesh, dir, err)
			}
			levelsEqual(t, res.Levels, fx.serial, fmt.Sprintf("mesh %v dir %v", mesh, dir))
		}
	}
}

// TestDirectionPoliciesMatchSerial1D: the same equivalence under the
// conventional 1D partitioning (Algorithm 1).
func TestDirectionPoliciesMatchSerial1D(t *testing.T) {
	g := testGraph(t, 500, 4, 3)
	src := graph.LargestComponentVertex(g)
	serial := graph.BFS(g, src)
	for _, p := range []int{1, 3, 4} {
		st1, w := build1D(t, g, p)
		for _, dir := range allDirections {
			opts := DefaultOptions(src)
			opts.Direction = dir
			res, err := Run2D(w, st1, opts)
			if err != nil {
				t.Fatalf("p=%d dir %v: %v", p, dir, err)
			}
			levelsEqual(t, res.Levels, serial, fmt.Sprintf("1D p=%d dir %v", p, dir))
		}
	}
}

// TestDirectionPoliciesHandBuiltGraphs exercises degenerate structures
// (path, star, disconnected components) where the direction switch
// boundary cases live, on both partitionings.
func TestDirectionPoliciesHandBuiltGraphs(t *testing.T) {
	path := [][2]graph.Vertex{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}}
	star := [][2]graph.Vertex{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}, {0, 7}}
	split := [][2]graph.Vertex{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 3}}
	cases := []struct {
		name  string
		n     int
		edges [][2]graph.Vertex
		src   graph.Vertex
	}{
		{"path", 10, path, 0},
		{"path-mid", 10, path, 5},
		{"star", 8, star, 3},
		{"disconnected", 7, split, 1},
		{"isolated-source", 7, split, 6},
	}
	for _, c := range cases {
		g, err := graph.FromEdges(c.n, c.edges)
		if err != nil {
			t.Fatal(err)
		}
		serial := graph.BFS(g, c.src)
		fx2 := build2D(t, g, 2, 2)
		st1, w1 := build1D(t, g, 3)
		for _, dir := range allDirections {
			opts := DefaultOptions(c.src)
			opts.Direction = dir
			res2, err := Run2D(fx2.world, fx2.st2, opts)
			if err != nil {
				t.Fatalf("%s 2D dir %v: %v", c.name, dir, err)
			}
			levelsEqual(t, res2.Levels, serial, fmt.Sprintf("%s 2D dir %v", c.name, dir))
			res1, err := Run2D(w1, st1, opts)
			if err != nil {
				t.Fatalf("%s 1D dir %v: %v", c.name, dir, err)
			}
			levelsEqual(t, res1.Levels, serial, fmt.Sprintf("%s 1D dir %v", c.name, dir))
		}
	}
}

// TestBottomUpInspectsFewerEdges is the headline property: on a
// low-diameter Poisson graph the direction-optimizing run switches to
// bottom-up on the big middle levels and inspects strictly fewer edges
// there than the top-down run did on the same levels.
func TestBottomUpInspectsFewerEdges(t *testing.T) {
	g := testGraph(t, 20000, 10, 7)
	fx := build2D(t, g, 2, 2)
	td := DefaultOptions(fx.src)
	do := DefaultOptions(fx.src)
	do.Direction = DirectionOptimizing
	resTD, err := Run2D(fx.world, fx.st2, td)
	if err != nil {
		t.Fatal(err)
	}
	resDO, err := Run2D(fx.world, fx.st2, do)
	if err != nil {
		t.Fatal(err)
	}
	levelsEqual(t, resDO.Levels, resTD.Levels, "dirop vs topdown")
	for _, ls := range resTD.PerLevel {
		if ls.Direction != TopDown {
			t.Fatalf("top-down run reported level %d as %v", ls.Level, ls.Direction)
		}
	}
	var buLevels int
	var tdEdges, doEdges int64
	for l, ls := range resDO.PerLevel {
		if ls.Direction != BottomUp {
			continue
		}
		buLevels++
		doEdges += ls.EdgesScanned
		if l < len(resTD.PerLevel) {
			tdEdges += resTD.PerLevel[l].EdgesScanned
		}
	}
	if buLevels == 0 {
		t.Fatal("direction-optimizing run never switched to bottom-up on a k=10 Poisson graph")
	}
	if doEdges >= tdEdges {
		t.Fatalf("bottom-up levels inspected %d edges, top-down %d on the same levels", doEdges, tdEdges)
	}
	if resDO.TotalEdgesScanned >= resTD.TotalEdgesScanned {
		t.Fatalf("total edges: dirop %d not below topdown %d",
			resDO.TotalEdgesScanned, resTD.TotalEdgesScanned)
	}
}

// TestDirectionPoliciesWithTargets: s→t searches and the bi-directional
// driver must return exact distances under every policy.
func TestDirectionPoliciesWithTargets(t *testing.T) {
	g := testGraph(t, 500, 5, 21)
	fx := build2D(t, g, 2, 3)
	rng := rand.New(rand.NewSource(22))
	for _, dir := range allDirections {
		for trial := 0; trial < 5; trial++ {
			s := graph.Vertex(rng.Intn(g.N))
			dst := graph.Vertex(rng.Intn(g.N))
			want := graph.Distance(g, s, dst)
			opts := DefaultOptions(s)
			opts.Target, opts.HasTarget = dst, true
			opts.Direction = dir
			for name, run := range map[string]func() (*Result, error){
				"uni": func() (*Result, error) { return Run2D(fx.world, fx.st2, opts) },
				"bi":  func() (*Result, error) { return RunBidirectional2D(fx.world, fx.st2, opts) },
			} {
				res, err := run()
				if err != nil {
					t.Fatalf("%s dir %v: %v", name, dir, err)
				}
				if want == graph.Unreached {
					if res.Found {
						t.Fatalf("%s dir %v: found unreachable target", name, dir)
					}
					continue
				}
				if !res.Found || res.Distance != want {
					t.Fatalf("%s dir %v: distance(%d,%d)=%d found=%v, want %d",
						name, dir, s, dst, res.Distance, res.Found, want)
				}
			}
		}
	}
}

// TestWireAutoMatchesSparse: the bitmap and hybrid wire encodings must
// not change any labeling; auto must never move more words than the
// plain lists, and hybrid never more than auto.
func TestWireAutoMatchesSparse(t *testing.T) {
	g := testGraph(t, 5000, 10, 23)
	fx := build2D(t, g, 2, 2)
	for _, ex := range []ExpandAlg{ExpandTargeted, ExpandAllGather, ExpandTwoPhase} {
		for _, fo := range []FoldAlg{FoldTwoPhase, FoldDirect} {
			base := DefaultOptions(fx.src)
			base.Expand, base.Fold = ex, fo
			auto := base
			auto.Wire = frontier.WireAuto
			hybrid := base
			hybrid.Wire = frontier.WireHybrid
			resSparse, err := Run2D(fx.world, fx.st2, base)
			if err != nil {
				t.Fatalf("%v/%v sparse: %v", ex, fo, err)
			}
			resAuto, err := Run2D(fx.world, fx.st2, auto)
			if err != nil {
				t.Fatalf("%v/%v auto: %v", ex, fo, err)
			}
			resHyb, err := Run2D(fx.world, fx.st2, hybrid)
			if err != nil {
				t.Fatalf("%v/%v hybrid: %v", ex, fo, err)
			}
			levelsEqual(t, resAuto.Levels, fx.serial, fmt.Sprintf("%v/%v wire=auto", ex, fo))
			levelsEqual(t, resHyb.Levels, fx.serial, fmt.Sprintf("%v/%v wire=hybrid", ex, fo))
			sparseWords := resSparse.TotalExpandWords + resSparse.TotalFoldWords
			autoWords := resAuto.TotalExpandWords + resAuto.TotalFoldWords
			hybWords := resHyb.TotalExpandWords + resHyb.TotalFoldWords
			if autoWords > sparseWords {
				t.Errorf("%v/%v: wire=auto moved %d words, sparse %d", ex, fo, autoWords, sparseWords)
			}
			if hybWords > autoWords {
				t.Errorf("%v/%v: wire=hybrid moved %d words, auto %d", ex, fo, hybWords, autoWords)
			}
			if resHyb.Containers.Payloads() == 0 {
				t.Errorf("%v/%v: wire=hybrid recorded no container choices", ex, fo)
			}
		}
	}
	// WireDense is also exact (if rarely cheaper on small levels).
	dense := DefaultOptions(fx.src)
	dense.Wire = frontier.WireDense
	res, err := Run2D(fx.world, fx.st2, dense)
	if err != nil {
		t.Fatal(err)
	}
	levelsEqual(t, res.Levels, fx.serial, "wire=dense")
}

// TestWireHybridAllDirections: hybrid payloads flow through every
// direction policy — including the bottom-up bitmap gathers and
// OR-claims — on both partitionings without changing a single label,
// and never move more words than wire=auto.
func TestWireHybridAllDirections(t *testing.T) {
	g := testGraph(t, 6000, 10, 29)
	fx := build2D(t, g, 2, 2)
	src := graph.LargestComponentVertex(g)
	serial := graph.BFS(g, src)
	st1, w1 := build1D(t, g, 4)
	for _, dir := range allDirections {
		auto := DefaultOptions(src)
		auto.Direction = dir
		auto.Wire = frontier.WireAuto
		hyb := auto
		hyb.Wire = frontier.WireHybrid
		for name, run := range map[string]func(o Options) (*Result, error){
			"2D": func(o Options) (*Result, error) { return Run2D(fx.world, fx.st2, o) },
			"1D": func(o Options) (*Result, error) { return Run2D(w1, st1, o) },
		} {
			resAuto, err := run(auto)
			if err != nil {
				t.Fatalf("%s dir %v auto: %v", name, dir, err)
			}
			resHyb, err := run(hyb)
			if err != nil {
				t.Fatalf("%s dir %v hybrid: %v", name, dir, err)
			}
			levelsEqual(t, resHyb.Levels, serial, fmt.Sprintf("%s dir %v wire=hybrid", name, dir))
			autoWords := resAuto.TotalExpandWords + resAuto.TotalFoldWords
			hybWords := resHyb.TotalExpandWords + resHyb.TotalFoldWords
			if hybWords > autoWords {
				t.Errorf("%s dir %v: wire=hybrid moved %d words, auto %d", name, dir, hybWords, autoWords)
			}
		}
	}
}

// dumbbellGraph builds the degree-skewed bi-directional regression
// workload: two hub vertices A and B, each adjacent to its own half of
// the vertices, joined by a two-vertex bridge path. The s→t search
// must cross hub → bridge → hub, so a hub lands in each side's
// frontier while almost every vertex is still unlabeled — the regime
// where the edges-out-of-frontier estimate fires and vertex counting
// never does (two frontier vertices out of thousands).
func dumbbellGraph(t *testing.T, half int) (*graph.CSR, graph.Vertex, graph.Vertex) {
	t.Helper()
	hubA, hubB := graph.Vertex(0), graph.Vertex(1)
	n := 2 + 2*half + 2
	p1, p2 := graph.Vertex(n-2), graph.Vertex(n-1)
	var edges [][2]graph.Vertex
	for i := 0; i < half; i++ {
		edges = append(edges,
			[2]graph.Vertex{hubA, graph.Vertex(2 + i)},
			[2]graph.Vertex{hubB, graph.Vertex(2 + half + i)})
	}
	edges = append(edges, [2]graph.Vertex{hubA, p1}, [2]graph.Vertex{p1, p2}, [2]graph.Vertex{p2, hubB})
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, graph.Vertex(2), graph.Vertex(2 + half) // s in A's half, t in B's
}

// TestBidirectionalDirOptBeatsTopDown is the Beamer-heuristic
// regression: with the edges-out-of-frontier switch, the bi-directional
// driver's bottom-up steps actually fire once a hub enters a frontier
// (the old vertex-count heuristic kept every step top-down — bidir
// frontiers stay tiny as vertex sets), and the direction-optimizing
// run beats pure top-down in both simulated execution time and words
// moved while returning the same exact distance.
func TestBidirectionalDirOptBeatsTopDown(t *testing.T) {
	g, s, dst := dumbbellGraph(t, 2000)
	want := graph.Distance(g, s, dst)
	fx := build2D(t, g, 2, 2)
	td := DefaultOptions(s)
	td.Target, td.HasTarget = dst, true
	do := td
	do.Direction = DirectionOptimizing
	resTD, err := RunBidirectional2D(fx.world, fx.st2, td)
	if err != nil {
		t.Fatal(err)
	}
	resDO, err := RunBidirectional2D(fx.world, fx.st2, do)
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*Result{"topdown": resTD, "dirop": resDO} {
		if !res.Found || res.Distance != want {
			t.Fatalf("%s: distance=%d found=%v, want %d", name, res.Distance, res.Found, want)
		}
	}
	buLevels := 0
	for _, ls := range resDO.PerLevel {
		if ls.Direction == BottomUp {
			buLevels++
		}
	}
	if buLevels == 0 {
		t.Fatal("bi-directional dirop never switched to bottom-up under the edge-based heuristic")
	}
	tdWords := resTD.TotalExpandWords + resTD.TotalFoldWords
	doWords := resDO.TotalExpandWords + resDO.TotalFoldWords
	if doWords >= tdWords {
		t.Fatalf("bi-directional dirop moved %d words, top-down %d — expected a win", doWords, tdWords)
	}
	if resDO.SimTime >= resTD.SimTime {
		t.Fatalf("bi-directional dirop simexec %.6fs, top-down %.6fs — expected a win",
			resDO.SimTime, resTD.SimTime)
	}
}

// TestWireAuto1D: the fold codec under Algorithm 1 (a 1 x P mesh).
func TestWireAuto1D(t *testing.T) {
	g := testGraph(t, 3000, 10, 24)
	src := graph.LargestComponentVertex(g)
	serial := graph.BFS(g, src)
	st1, w := build1D(t, g, 4)
	for _, fo := range []FoldAlg{FoldTwoPhase, FoldDirect} {
		opts := DefaultOptions(src)
		opts.Fold = fo
		opts.Wire = frontier.WireAuto
		res, err := Run2D(w, st1, opts)
		if err != nil {
			t.Fatalf("1D %v wire=auto: %v", fo, err)
		}
		levelsEqual(t, res.Levels, serial, fmt.Sprintf("1D %v wire=auto", fo))
	}
}

// TestBidirectional1DWithDirections: the bi-directional driver on a
// 1 x P mesh under every policy.
func TestBidirectional1DWithDirections(t *testing.T) {
	g := testGraph(t, 600, 5, 26)
	src := graph.LargestComponentVertex(g)
	serial := graph.BFS(g, src)
	var far graph.Vertex
	for v, l := range serial {
		if l != graph.Unreached && l > serial[far] {
			far = graph.Vertex(v)
		}
	}
	st1, w := build1D(t, g, 4)
	for _, dir := range allDirections {
		opts := DefaultOptions(src)
		opts.Target, opts.HasTarget = far, true
		opts.Direction = dir
		res, err := RunBidirectional2D(w, st1, opts)
		if err != nil {
			t.Fatalf("dir %v: %v", dir, err)
		}
		if !res.Found || res.Distance != serial[far] {
			t.Fatalf("dir %v: distance %d found=%v, want %d", dir, res.Distance, res.Found, serial[far])
		}
	}
}

func TestDirectionStrings(t *testing.T) {
	cases := map[string]string{
		TopDown.String():             "topdown",
		BottomUp.String():            "bottomup",
		DirectionOptimizing.String(): "dirop",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if !strings.Contains(Direction(99).String(), "99") {
		t.Error("unknown direction should include the value")
	}
	g := testGraph(t, 100, 3, 27)
	fx := build2D(t, g, 1, 2)
	opts := DefaultOptions(fx.src)
	opts.Direction = Direction(99)
	if _, err := Run2D(fx.world, fx.st2, opts); err == nil {
		t.Error("unknown direction policy did not error")
	}
}

// TestBottomUpWalksPastEmptyOwners aims at the walk claimParents and
// ownedOutDegrees make along the ascending compact columns: they locate
// each column vertex's owner through a cursor that divides only when
// the vertex leaves the previous one's block, so a block column whose
// first or middle owner has no column on a rank is what they can get
// wrong — within a chunk and at a chunk's start. On the 4x2 mesh below
// only the vertices of every second block (the owners at column-group
// index 1 and 3) have edges, about 5,900 columns on half the ranks and
// none on the rest, so four workers cut the scan into ownedGrain chunks
// that begin before, inside and after the gap. The tiny cases put n next
// to P, where most owners own one vertex or none.
func TestBottomUpWalksPastEmptyOwners(t *testing.T) {
	const bs = 3000
	rng := rand.New(rand.NewSource(5))
	var live []graph.Vertex
	for v := 0; v < 8*bs; v++ {
		if v/bs%2 == 1 {
			live = append(live, graph.Vertex(v))
		}
	}
	var gappy [][2]graph.Vertex
	for i := 1; i < len(live); i++ {
		gappy = append(gappy, [2]graph.Vertex{live[i-1], live[i]}) // connected
		for e := 0; e < 3; e++ {
			if u := live[rng.Intn(len(live))]; u != live[i] {
				gappy = append(gappy, [2]graph.Vertex{live[i], u})
			}
		}
	}
	star := func(n int) [][2]graph.Vertex {
		var es [][2]graph.Vertex
		for v := 0; v < n; v++ {
			if v != n/2 {
				es = append(es, [2]graph.Vertex{graph.Vertex(n / 2), graph.Vertex(v)})
			}
		}
		return es
	}
	cases := []struct {
		name  string
		n     int
		edges [][2]graph.Vertex
		r, c  int
		src   graph.Vertex
	}{
		{"every-second-owner", 8 * bs, gappy, 4, 2, live[0]},
		{"star-n=P+1", 17, star(17), 4, 4, 3},
		{"star-n=P+1-3x2", 7, star(7), 3, 2, 0},
	}
	for _, tc := range cases {
		g, err := graph.FromEdges(tc.n, tc.edges)
		if err != nil {
			t.Fatal(err)
		}
		serial := graph.BFS(g, tc.src)
		fx := build2D(t, g, tc.r, tc.c)
		for _, dir := range []Direction{BottomUp, DirectionOptimizing} {
			var edges int64
			for _, workers := range []int{1, 4} {
				for _, async := range []bool{false, true} {
					label := fmt.Sprintf("%s dir %v workers %d async %v", tc.name, dir, workers, async)
					opts := DefaultOptions(tc.src)
					opts.Direction, opts.Workers, opts.Async = dir, workers, async
					res, err := Run2D(fx.world, fx.st2, opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					levelsEqual(t, res.Levels, serial, label)
					if edges == 0 {
						edges = res.TotalEdgesScanned
					}
					if res.TotalEdgesScanned != edges {
						t.Fatalf("%s: %d edges scanned, first run of this direction %d", label, res.TotalEdgesScanned, edges)
					}
				}
			}
		}
	}
}
