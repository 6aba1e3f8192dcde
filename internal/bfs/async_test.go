package bfs

import (
	"fmt"
	"testing"

	"repro/internal/frontier"
	"repro/internal/graph"
)

func graph_LargestComponent(g *graph.CSR) graph.Vertex { return graph.LargestComponentVertex(g) }

func meshWireLabel(mesh [2]int, wire frontier.WireMode) string {
	return fmt.Sprintf("%dx%d/%s", mesh[0], mesh[1], wire)
}

var asyncMeshes = [][2]int{{1, 1}, {1, 4}, {4, 1}, {2, 2}, {4, 4}}

var asyncWires = []frontier.WireMode{
	frontier.WireSparse, frontier.WireDense, frontier.WireAuto, frontier.WireHybrid,
}

// runPair runs the same configuration synchronously and asynchronously
// on a fresh fixture each and returns both results.
func runPair(t *testing.T, g fixtureBuilder, opts Options) (sync, async *Result) {
	t.Helper()
	opts.Async = false
	sync = g(t, opts)
	opts.Async = true
	async = g(t, opts)
	return sync, async
}

type fixtureBuilder func(t *testing.T, opts Options) *Result

// checkAsyncAgainstSync asserts the acceptance contract: identical
// levels and exchange statistics, simulated execution never worse, and
// the overlap ledger consistent (OverlapS <= CommS per level, overlap
// only on the async side).
func checkAsyncAgainstSync(t *testing.T, label string, sync, async *Result) {
	t.Helper()
	levelsEqual(t, async.Levels, sync.Levels, label)
	if async.TotalExpandWords != sync.TotalExpandWords || async.TotalFoldWords != sync.TotalFoldWords {
		t.Fatalf("%s: words differ: async %d/%d, sync %d/%d", label,
			async.TotalExpandWords, async.TotalFoldWords, sync.TotalExpandWords, sync.TotalFoldWords)
	}
	if async.TotalDups != sync.TotalDups || async.TotalEdgesScanned != sync.TotalEdgesScanned {
		t.Fatalf("%s: dups/edges differ: async %d/%d, sync %d/%d", label,
			async.TotalDups, async.TotalEdgesScanned, sync.TotalDups, sync.TotalEdgesScanned)
	}
	if async.SimTime > sync.SimTime {
		t.Fatalf("%s: async simexec %g > sync %g", label, async.SimTime, sync.SimTime)
	}
	if sync.SimOverlap != 0 {
		t.Fatalf("%s: sync run recorded overlap %g", label, sync.SimOverlap)
	}
	if async.SimOverlap > async.SimComm {
		t.Fatalf("%s: overlap %g exceeds comm %g", label, async.SimOverlap, async.SimComm)
	}
	for l, ls := range async.PerLevel {
		if ls.OverlapS < 0 || ls.OverlapS > ls.CommS+1e-12 {
			t.Fatalf("%s level %d: OverlapS %g outside [0, CommS=%g]", label, l, ls.OverlapS, ls.CommS)
		}
	}
}

// TestAsyncMatchesSyncEveryMeshAndCodec is the acceptance matrix: the
// overlapped schedule produces identical levels (and words) to the
// phase-synchronous one on every mesh x wire codec, never slower in
// simulated time.
func TestAsyncMatchesSyncEveryMeshAndCodec(t *testing.T) {
	g := testGraph(t, 3000, 8, 11)
	for _, mesh := range asyncMeshes {
		for _, wire := range asyncWires {
			label := meshWireLabel(mesh, wire)
			builder := func(t *testing.T, opts Options) *Result {
				fx := build2D(t, g, mesh[0], mesh[1])
				res, err := Run2D(fx.world, fx.st2, opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			opts := DefaultOptions(graph_LargestComponent(g))
			opts.Wire = wire
			sync, async := runPair(t, builder, opts)
			checkAsyncAgainstSync(t, label, sync, async)
		}
	}
}

// TestAsyncMatchesSync1DEngine runs the matrix on the dedicated 1D
// engine.
func TestAsyncMatchesSync1DEngine(t *testing.T) {
	g := testGraph(t, 2500, 8, 13)
	for _, p := range []int{1, 3, 4, 8} {
		for _, wire := range asyncWires {
			builder := func(t *testing.T, opts Options) *Result {
				st, w := build1D(t, g, p)
				res, err := Run1D(w, st, opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			opts := DefaultOptions(graph_LargestComponent(g))
			opts.Wire = wire
			sync, async := runPair(t, builder, opts)
			checkAsyncAgainstSync(t, meshWireLabel([2]int{1, p}, wire), sync, async)
		}
	}
}

// TestAsyncMatchesSyncCollectiveVariants sweeps the expand and fold
// algorithm selectors and the traversal directions.
func TestAsyncMatchesSyncCollectiveVariants(t *testing.T) {
	g := testGraph(t, 3000, 10, 17)
	for _, expand := range []ExpandAlg{ExpandTargeted, ExpandAllGather, ExpandTwoPhase} {
		for _, fold := range []FoldAlg{FoldTwoPhase, FoldDirect, FoldTwoPhaseNoUnion} {
			builder := func(t *testing.T, opts Options) *Result {
				fx := build2D(t, g, 2, 4)
				res, err := Run2D(fx.world, fx.st2, opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			opts := DefaultOptions(graph_LargestComponent(g))
			opts.Expand = expand
			opts.Fold = fold
			opts.Wire = frontier.WireHybrid
			sync, async := runPair(t, builder, opts)
			checkAsyncAgainstSync(t, expand.String()+"/"+fold.String(), sync, async)
		}
	}
	for _, dir := range []Direction{TopDown, BottomUp, DirectionOptimizing} {
		builder := func(t *testing.T, opts Options) *Result {
			fx := build2D(t, g, 2, 2)
			res, err := Run2D(fx.world, fx.st2, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		opts := DefaultOptions(graph_LargestComponent(g))
		opts.Direction = dir
		opts.Wire = frontier.WireAuto
		sync, async := runPair(t, builder, opts)
		checkAsyncAgainstSync(t, "direction="+dir.String(), sync, async)
	}
}

// TestAsyncMultiMatchesSync: the batched multi-source sweeps produce
// identical lane levels under both schedules, never slower.
func TestAsyncMultiMatchesSync(t *testing.T) {
	g := testGraph(t, 2500, 8, 19)
	srcs := multiSources(g, 9)
	for _, mesh := range [][2]int{{1, 1}, {2, 2}, {1, 4}} {
		for _, wire := range []frontier.WireMode{frontier.WireSparse, frontier.WireHybrid} {
			run := func(asyncOn bool) *MultiResult {
				fx := build2D(t, g, mesh[0], mesh[1])
				opts := DefaultOptions(0)
				opts.Wire = wire
				opts.Async = asyncOn
				res, err := MultiRun2D(fx.world, fx.st2, srcs, opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			sync, async := run(false), run(true)
			for lane := range srcs {
				levelsEqual(t, async.LaneLevels[lane], sync.LaneLevels[lane], "multi lane")
			}
			if async.SimTime > sync.SimTime {
				t.Fatalf("multi %v wire=%v: async simexec %g > sync %g", mesh, wire, async.SimTime, sync.SimTime)
			}
			if async.TotalExpandWords != sync.TotalExpandWords || async.TotalFoldWords != sync.TotalFoldWords {
				t.Fatalf("multi %v wire=%v: words differ", mesh, wire)
			}
		}
	}
}

// TestAsyncDeterministicSimexec: the overlapped schedule's simulated
// clock is a pure function of the workload — two runs agree bit for
// bit, level by level.
func TestAsyncDeterministicSimexec(t *testing.T) {
	g := testGraph(t, 3000, 10, 23)
	run := func() *Result {
		fx := build2D(t, g, 2, 4)
		opts := DefaultOptions(graph_LargestComponent(g))
		opts.Wire = frontier.WireHybrid
		res, err := Run2D(fx.world, fx.st2, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.SimTime != b.SimTime || a.SimComm != b.SimComm || a.SimOverlap != b.SimOverlap {
		t.Fatalf("async clock not deterministic: %.17g/%.17g/%.17g vs %.17g/%.17g/%.17g",
			a.SimTime, a.SimComm, a.SimOverlap, b.SimTime, b.SimComm, b.SimOverlap)
	}
	for l := range a.PerLevel {
		if a.PerLevel[l].ExecS != b.PerLevel[l].ExecS || a.PerLevel[l].OverlapS != b.PerLevel[l].OverlapS {
			t.Fatalf("level %d timings differ across runs", l)
		}
	}
}

// TestAsyncActuallyOverlaps: on a non-trivial mesh the default schedule
// hides a nonzero amount of communication and beats the synchronous
// clock strictly.
func TestAsyncActuallyOverlaps(t *testing.T) {
	g := testGraph(t, 6000, 10, 29)
	builder := func(t *testing.T, opts Options) *Result {
		fx := build2D(t, g, 4, 4)
		res, err := Run2D(fx.world, fx.st2, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sync, async := runPair(t, builder, DefaultOptions(graph_LargestComponent(g)))
	if async.SimOverlap <= 0 {
		t.Fatal("default async schedule hid nothing")
	}
	if async.SimTime >= sync.SimTime {
		t.Fatalf("async simexec %g not strictly below sync %g", async.SimTime, sync.SimTime)
	}
}
