package bfs

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/search"
	"repro/internal/torus"
)

// fixture bundles a graph with distributed stores for a mesh.
type fixture struct {
	g      *graph.CSR
	l2     *partition.Layout2D
	st2    []*partition.Store2D
	world  *comm.World
	serial []int32 // serial BFS levels from src
	src    graph.Vertex
}

func visitCSR(g *graph.CSR) func(func(u, v graph.Vertex)) error {
	return func(fn func(u, v graph.Vertex)) error {
		for v := 0; v < g.N; v++ {
			for _, u := range g.Neighbors(graph.Vertex(v)) {
				if graph.Vertex(v) < u {
					fn(graph.Vertex(v), u)
				}
			}
		}
		return nil
	}
}

func build2D(t *testing.T, g *graph.CSR, r, c int) fixture {
	t.Helper()
	l2, err := partition.NewLayout2D(g.N, r, c)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := partition.Build2D(l2, visitCSR(g))
	if err != nil {
		t.Fatal(err)
	}
	w, err := comm.NewWorld(comm.Config{P: r * c})
	if err != nil {
		t.Fatal(err)
	}
	src := graph.LargestComponentVertex(g)
	return fixture{g: g, l2: l2, st2: st2, world: w, serial: graph.BFS(g, src), src: src}
}

func testGraph(t *testing.T, n int, k float64, seed int64) *graph.CSR {
	t.Helper()
	g, err := graph.Generate(graph.Params{N: n, K: k, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func levelsEqual(t *testing.T, got, want []int32, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: level array length %d, want %d", label, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: level[%d] = %d, want %d", label, v, got[v], want[v])
		}
	}
}

func TestRun2DMatchesSerialAcrossMeshes(t *testing.T) {
	g := testGraph(t, 600, 5, 1)
	for _, mesh := range [][2]int{{1, 1}, {2, 2}, {1, 4}, {4, 1}, {2, 3}, {3, 4}} {
		fx := build2D(t, g, mesh[0], mesh[1])
		res, err := Run2D(fx.world, fx.st2, DefaultOptions(fx.src))
		if err != nil {
			t.Fatalf("mesh %v: %v", mesh, err)
		}
		levelsEqual(t, res.Levels, fx.serial, fmt.Sprintf("mesh %v", mesh))
	}
}

func TestRun2DAllAlgorithmCombinations(t *testing.T) {
	g := testGraph(t, 400, 6, 2)
	fx := build2D(t, g, 3, 2)
	for _, ex := range []ExpandAlg{ExpandTargeted, ExpandAllGather, ExpandTwoPhase} {
		for _, fo := range []FoldAlg{FoldTwoPhase, FoldDirect, FoldTwoPhaseNoUnion} {
			for _, cache := range []bool{true, false} {
				for _, chunk := range []int{0, 64} {
					opts := Options{
						Source: fx.src, Expand: ex, Fold: fo,
						SentCache: cache,
						Common:    search.Common{ChunkWords: chunk},
					}
					res, err := Run2D(fx.world, fx.st2, opts)
					if err != nil {
						t.Fatalf("%v/%v cache=%v chunk=%d: %v", ex, fo, cache, chunk, err)
					}
					levelsEqual(t, res.Levels, fx.serial,
						fmt.Sprintf("%v/%v cache=%v chunk=%d", ex, fo, cache, chunk))
				}
			}
		}
	}
}

func TestRun1DMatchesSerial(t *testing.T) {
	g := testGraph(t, 500, 4, 3)
	for _, p := range []int{1, 2, 4, 7} {
		l1, err := partition.NewLayout1D(g.N, p)
		if err != nil {
			t.Fatal(err)
		}
		st1, err := partition.Build1D(l1, visitCSR(g))
		if err != nil {
			t.Fatal(err)
		}
		w, err := comm.NewWorld(comm.Config{P: p})
		if err != nil {
			t.Fatal(err)
		}
		src := graph.LargestComponentVertex(g)
		res, err := Run1D(w, st1, DefaultOptions(src))
		if err != nil {
			t.Fatal(err)
		}
		levelsEqual(t, res.Levels, graph.BFS(g, src), fmt.Sprintf("1D p=%d", p))
	}
}

// TestRun1DEquivalentToDegenerate2D: Algorithm 1 and Algorithm 2 with
// R=1 are the same partitioning; their levels and fold volumes must
// agree.
func TestRun1DEquivalentToDegenerate2D(t *testing.T) {
	g := testGraph(t, 400, 5, 4)
	p := 4
	src := graph.LargestComponentVertex(g)

	l1, _ := partition.NewLayout1D(g.N, p)
	st1, err := partition.Build1D(l1, visitCSR(g))
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := comm.NewWorld(comm.Config{P: p})
	opts := DefaultOptions(src)
	opts.Fold = FoldDirect
	res1, err := Run1D(w1, st1, opts)
	if err != nil {
		t.Fatal(err)
	}

	fx := build2D(t, g, 1, p)
	res2, err := Run2D(fx.world, fx.st2, opts)
	if err != nil {
		t.Fatal(err)
	}
	levelsEqual(t, res2.Levels, res1.Levels, "1D vs 2D(R=1)")
	if res1.TotalFoldWords != res2.TotalFoldWords {
		t.Errorf("fold words differ: 1D=%d 2D(R=1)=%d", res1.TotalFoldWords, res2.TotalFoldWords)
	}
}

func TestTargetSearchDistances(t *testing.T) {
	g := testGraph(t, 500, 5, 5)
	fx := build2D(t, g, 2, 3)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		s := graph.Vertex(rng.Intn(g.N))
		dst := graph.Vertex(rng.Intn(g.N))
		want := graph.Distance(g, s, dst)
		opts := DefaultOptions(s)
		opts.Target = dst
		opts.HasTarget = true
		res, err := Run2D(fx.world, fx.st2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want == graph.Unreached {
			if res.Found {
				t.Fatalf("trial %d: found unreachable target %d from %d", trial, dst, s)
			}
			continue
		}
		if !res.Found || res.Distance != want {
			t.Fatalf("trial %d: distance(%d,%d) = %d found=%v, want %d",
				trial, s, dst, res.Distance, res.Found, want)
		}
	}
}

func TestBidirectionalDistances(t *testing.T) {
	g := testGraph(t, 500, 5, 6)
	fx := build2D(t, g, 2, 3)
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		s := graph.Vertex(rng.Intn(g.N))
		dst := graph.Vertex(rng.Intn(g.N))
		want := graph.Distance(g, s, dst)
		opts := DefaultOptions(s)
		opts.Target = dst
		opts.HasTarget = true
		res, err := RunBidirectional2D(fx.world, fx.st2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want == graph.Unreached {
			if res.Found {
				t.Fatalf("trial %d: bidir found unreachable target", trial)
			}
			continue
		}
		if !res.Found || res.Distance != want {
			t.Fatalf("trial %d: bidir distance(%d,%d) = %d found=%v, want %d",
				trial, s, dst, res.Distance, res.Found, want)
		}
	}
}

func TestBidirectionalRequiresTarget(t *testing.T) {
	g := testGraph(t, 100, 3, 7)
	fx := build2D(t, g, 1, 2)
	_, err := RunBidirectional2D(fx.world, fx.st2, DefaultOptions(0))
	if err == nil {
		t.Fatal("expected error without target")
	}
}

func TestBidirectionalReducesFoldVolume(t *testing.T) {
	// §2.3 / Fig. 4c: bi-directional search processes far less volume
	// than uni-directional on the same reachable pair.
	g := testGraph(t, 2000, 8, 8)
	fx := build2D(t, g, 2, 2)
	serial := graph.BFS(g, fx.src)
	// Pick a target at the far end so the uni search walks the graph.
	var far graph.Vertex
	for v := 0; v < g.N; v++ {
		if serial[v] != graph.Unreached && serial[v] > serial[far] {
			far = graph.Vertex(v)
		}
	}
	opts := DefaultOptions(fx.src)
	opts.Target = far
	opts.HasTarget = true
	uni, err := Run2D(fx.world, fx.st2, opts)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := RunBidirectional2D(fx.world, fx.st2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !uni.Found || !bi.Found || uni.Distance != bi.Distance {
		t.Fatalf("distances disagree: uni=%d/%v bi=%d/%v", uni.Distance, uni.Found, bi.Distance, bi.Found)
	}
	uniVol := uni.TotalFoldWords + uni.TotalExpandWords
	biVol := bi.TotalFoldWords + bi.TotalExpandWords
	if biVol >= uniVol {
		t.Errorf("bi-directional volume %d not below uni-directional %d", biVol, uniVol)
	}
}

func TestSentCacheReducesFoldVolume(t *testing.T) {
	g := testGraph(t, 1000, 10, 9)
	fx := build2D(t, g, 2, 2)
	on := DefaultOptions(fx.src)
	off := DefaultOptions(fx.src)
	off.SentCache = false
	resOn, err := Run2D(fx.world, fx.st2, on)
	if err != nil {
		t.Fatal(err)
	}
	resOff, err := Run2D(fx.world, fx.st2, off)
	if err != nil {
		t.Fatal(err)
	}
	levelsEqual(t, resOn.Levels, resOff.Levels, "sent-cache")
	totalOn := resOn.TotalFoldWords + resOn.TotalDups
	totalOff := resOff.TotalFoldWords + resOff.TotalDups
	if totalOn >= totalOff {
		t.Errorf("sent-cache did not reduce neighbor traffic: on=%d off=%d", totalOn, totalOff)
	}
}

func TestStatsConsistency(t *testing.T) {
	g := testGraph(t, 800, 6, 11)
	fx := build2D(t, g, 2, 3)
	res, err := Run2D(fx.world, fx.st2, DefaultOptions(fx.src))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerLevel) == 0 {
		t.Fatal("no per-level stats")
	}
	if res.PerLevel[0].Frontier != 1 {
		t.Errorf("level 0 frontier = %d, want 1", res.PerLevel[0].Frontier)
	}
	var marked int64
	for _, ls := range res.PerLevel {
		marked += ls.Marked
	}
	if int(marked)+1 != res.Reached() {
		t.Errorf("marked %d + source != reached %d", marked, res.Reached())
	}
	if res.SimTime <= 0 || res.SimComm <= 0 {
		t.Errorf("simulated times not positive: %g %g", res.SimTime, res.SimComm)
	}
	if res.SimComm >= res.SimTime {
		t.Errorf("comm time %g not below exec time %g", res.SimComm, res.SimTime)
	}
	if res.HashProbes == 0 {
		t.Error("no hash probes recorded")
	}
	if res.TotalExpandWords == 0 || res.TotalFoldWords == 0 {
		t.Error("no communication recorded on a multi-rank mesh")
	}
}

func TestMaxLevelsTruncates(t *testing.T) {
	g := testGraph(t, 600, 4, 12)
	fx := build2D(t, g, 2, 2)
	opts := DefaultOptions(fx.src)
	opts.MaxLevels = 2
	res, err := Run2D(fx.world, fx.st2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLevel() > 2 {
		t.Errorf("levels beyond MaxLevels: %d", res.MaxLevel())
	}
	if len(res.PerLevel) > 2 {
		t.Errorf("%d levels recorded, want <= 2", len(res.PerLevel))
	}
}

func TestUnionFoldRedundancy(t *testing.T) {
	// Higher degree -> more duplicate neighbors -> union-fold saves
	// more (the Fig. 7 mechanism). Disable the sent-cache so duplicates
	// across levels survive to the fold.
	g := testGraph(t, 600, 20, 13)
	fx := build2D(t, g, 2, 2)
	opts := DefaultOptions(fx.src)
	opts.SentCache = false
	res, err := Run2D(fx.world, fx.st2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDups == 0 {
		t.Fatal("union-fold eliminated no duplicates on a k=20 graph")
	}
	if rr := res.RedundancyRatio(); rr <= 0 || rr >= 100 {
		t.Fatalf("redundancy ratio %g out of range", rr)
	}
}

func TestSourceEqualsTarget(t *testing.T) {
	g := testGraph(t, 100, 3, 14)
	fx := build2D(t, g, 2, 2)
	opts := DefaultOptions(5)
	opts.Target = 5
	opts.HasTarget = true
	for name, run := range map[string]func() (*Result, error){
		"uni": func() (*Result, error) { return Run2D(fx.world, fx.st2, opts) },
		"bi":  func() (*Result, error) { return RunBidirectional2D(fx.world, fx.st2, opts) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Found || res.Distance != 0 {
			t.Fatalf("%s: s==t gave distance %d found=%v", name, res.Distance, res.Found)
		}
	}
}

func TestRunValidation(t *testing.T) {
	g := testGraph(t, 100, 3, 15)
	fx := build2D(t, g, 2, 2)
	opts := DefaultOptions(graph.Vertex(g.N)) // out of range
	if _, err := Run2D(fx.world, fx.st2, opts); err == nil {
		t.Error("out-of-range source accepted")
	}
	opts = DefaultOptions(0)
	opts.HasTarget = true
	opts.Target = graph.Vertex(g.N)
	if _, err := Run2D(fx.world, fx.st2, opts); err == nil {
		t.Error("out-of-range target accepted")
	}
	wrongWorld, _ := comm.NewWorld(comm.Config{P: 3})
	if _, err := Run2D(wrongWorld, fx.st2, DefaultOptions(0)); err == nil {
		t.Error("mismatched world size accepted")
	}
}

func TestDisconnectedGraphTraversal(t *testing.T) {
	// Two components; traversal labels only the source's component.
	edges := [][2]graph.Vertex{{0, 1}, {1, 2}, {3, 4}}
	g, err := graph.FromEdges(6, edges)
	if err != nil {
		t.Fatal(err)
	}
	l2, _ := partition.NewLayout2D(g.N, 2, 2)
	st2, err := partition.Build2D(l2, visitCSR(g))
	if err != nil {
		t.Fatal(err)
	}
	w, _ := comm.NewWorld(comm.Config{P: 4})
	res, err := Run2D(w, st2, DefaultOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	levelsEqual(t, res.Levels, graph.BFS(g, 0), "disconnected")
	if res.Reached() != 3 {
		t.Errorf("reached %d vertices, want 3", res.Reached())
	}
}

func TestDeterministicSimulatedTime(t *testing.T) {
	g := testGraph(t, 500, 6, 16)
	fx := build2D(t, g, 2, 3)
	opts := DefaultOptions(fx.src)
	a, err := Run2D(fx.world, fx.st2, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run2D(fx.world, fx.st2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.SimTime != b.SimTime || a.SimComm != b.SimComm {
		t.Errorf("simulated times not deterministic: (%g,%g) vs (%g,%g)",
			a.SimTime, a.SimComm, b.SimTime, b.SimComm)
	}
	if a.TotalFoldWords != b.TotalFoldWords {
		t.Errorf("fold words not deterministic: %d vs %d", a.TotalFoldWords, b.TotalFoldWords)
	}
}

func TestBidirectional1DDistances(t *testing.T) {
	g := testGraph(t, 600, 5, 18)
	p := 4
	l1, _ := partition.NewLayout1D(g.N, p)
	st1, err := partition.Build1D(l1, visitCSR(g))
	if err != nil {
		t.Fatal(err)
	}
	w, err := comm.NewWorld(comm.Config{P: p})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 8; trial++ {
		s := graph.Vertex(rng.Intn(g.N))
		dst := graph.Vertex(rng.Intn(g.N))
		want := graph.Distance(g, s, dst)
		opts := DefaultOptions(s)
		opts.Target, opts.HasTarget = dst, true
		res, err := RunBidirectional1D(w, st1, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want == graph.Unreached {
			if res.Found {
				t.Fatalf("trial %d: 1D bidir found unreachable target", trial)
			}
			continue
		}
		if !res.Found || res.Distance != want {
			t.Fatalf("trial %d: 1D bidir distance(%d,%d) = %d found=%v, want %d",
				trial, s, dst, res.Distance, res.Found, want)
		}
	}
	// Requires a target.
	if _, err := RunBidirectional1D(w, st1, DefaultOptions(0)); err == nil {
		t.Fatal("1D bidir without target accepted")
	}
	// Trivial s == t.
	opts := DefaultOptions(5)
	opts.Target, opts.HasTarget = 5, true
	res, err := RunBidirectional1D(w, st1, opts)
	if err != nil || !res.Found || res.Distance != 0 {
		t.Fatalf("trivial 1D bidir: %v %v %d", err, res.Found, res.Distance)
	}
}

// TestQuickRandomConfigs is the end-to-end property test: for random
// graph parameters, mesh shapes, algorithm choices and sources, the
// distributed levels always equal the serial oracle's.
func TestQuickRandomConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		n := 100 + rng.Intn(500)
		k := 1 + rng.Float64()*8
		r := 1 + rng.Intn(3)
		c := 1 + rng.Intn(3)
		g := testGraph(t, n, k, int64(trial))
		fx := build2D(t, g, r, c)
		opts := Options{
			Source:    graph.Vertex(rng.Intn(n)),
			Expand:    ExpandAlg(rng.Intn(3)),
			Fold:      FoldAlg(rng.Intn(3)),
			SentCache: rng.Intn(2) == 0,
			Common:    search.Common{ChunkWords: []int{0, 16, 1024}[rng.Intn(3)]},
		}
		res, err := Run2D(fx.world, fx.st2, opts)
		if err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, opts, err)
		}
		levelsEqual(t, res.Levels, graph.BFS(g, opts.Source),
			fmt.Sprintf("trial %d n=%d k=%.1f mesh=%dx%d %+v", trial, n, k, r, c, opts))
	}
}

// TestWorldReuseAcrossEngines runs 1D, 2D and bidirectional searches
// back to back on one world, checking no state leaks between runs.
func TestWorldReuseAcrossEngines(t *testing.T) {
	g := testGraph(t, 400, 5, 30)
	fx := build2D(t, g, 2, 2)
	serial := graph.BFS(g, fx.src)
	for round := 0; round < 3; round++ {
		res, err := Run2D(fx.world, fx.st2, DefaultOptions(fx.src))
		if err != nil {
			t.Fatal(err)
		}
		levelsEqual(t, res.Levels, serial, fmt.Sprintf("round %d", round))
		opts := DefaultOptions(fx.src)
		opts.Target, opts.HasTarget = fx.src+1, true
		if _, err := RunBidirectional2D(fx.world, fx.st2, opts); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPerRankStatsAndBalance(t *testing.T) {
	g := testGraph(t, 2000, 8, 32)
	fx := build2D(t, g, 2, 2)
	res, err := Run2D(fx.world, fx.st2, DefaultOptions(fx.src))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerRank) != 4 {
		t.Fatalf("PerRank has %d ranks", len(res.PerRank))
	}
	// Per-rank stats must sum to the global per-level stats.
	for l, global := range res.PerLevel {
		var marked, fold int64
		for _, recs := range res.PerRank {
			if l < len(recs) {
				marked += recs[l].Marked
				fold += recs[l].FoldWords
			}
		}
		if marked != global.Marked || fold != global.FoldWords {
			t.Fatalf("level %d: per-rank sums (%d,%d) != global (%d,%d)",
				l, marked, fold, global.Marked, global.FoldWords)
		}
	}
	// Poisson random graph + blocked partitioning: near-perfect balance.
	if im := res.LoadImbalance(); im < 1 || im > 1.5 {
		t.Errorf("load imbalance %g outside [1, 1.5]", im)
	}
}

// TestBidirectionalWithAllFolds: the bi-directional driver must work
// with every fold algorithm and chunking.
func TestBidirectionalWithAllFolds(t *testing.T) {
	g := testGraph(t, 600, 6, 40)
	fx := build2D(t, g, 2, 2)
	serial := graph.BFS(g, fx.src)
	var far graph.Vertex
	for v, l := range serial {
		if l != graph.Unreached && l > serial[far] {
			far = graph.Vertex(v)
		}
	}
	for _, fo := range []FoldAlg{FoldTwoPhase, FoldDirect, FoldTwoPhaseNoUnion} {
		for _, chunk := range []int{0, 32} {
			opts := DefaultOptions(fx.src)
			opts.Target, opts.HasTarget = far, true
			opts.Fold = fo
			opts.ChunkWords = chunk
			res, err := RunBidirectional2D(fx.world, fx.st2, opts)
			if err != nil {
				t.Fatalf("%v chunk=%d: %v", fo, chunk, err)
			}
			if !res.Found || res.Distance != serial[far] {
				t.Fatalf("%v chunk=%d: distance %d found=%v, want %d",
					fo, chunk, res.Distance, res.Found, serial[far])
			}
		}
	}
}

// TestClusterCostModel: the Quadrics-cluster preset must run the same
// algorithms to the same answers with different (but positive) times.
func TestClusterCostModel(t *testing.T) {
	g := testGraph(t, 500, 5, 41)
	l2, _ := partition.NewLayout2D(g.N, 2, 2)
	st2, err := partition.Build2D(l2, visitCSR(g))
	if err != nil {
		t.Fatal(err)
	}
	w, err := comm.NewWorld(comm.Config{P: 4, Model: torus.PresetCluster()})
	if err != nil {
		t.Fatal(err)
	}
	src := graph.LargestComponentVertex(g)
	res, err := Run2D(w, st2, DefaultOptions(src))
	if err != nil {
		t.Fatal(err)
	}
	levelsEqual(t, res.Levels, graph.BFS(g, src), "cluster model")
	if res.SimTime <= 0 {
		t.Error("cluster model produced no simulated time")
	}
}
