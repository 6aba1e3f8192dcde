package bgl

import (
	"runtime"
	"testing"
)

// TestAllocBudgets pins the heap allocations — count and bytes — of one
// traversal per engine family on a small fixed graph, and of the
// traversals graphd serves with on the perf lab's service graph (a lone
// query's BFS, a batch's 8-lane sweep), counted over every rank's
// goroutine. The engines allocate their scratch — fold rows and
// accumulators, level frontiers, expand and decode staging — once per
// rank per run, the ranks label straight into the answer, and the
// transport allocates nothing per message beyond the payload it is
// handed (routes come from the World's table, requests are values,
// per-call tables are borrowed from the Comm); an allocation that creeps
// back into the per-message or per-superstep path multiplies by levels x
// ranks x messages and lands far above the count ceilings, and an
// n-sized array that comes back as one allocation lands above the bytes
// ceilings. The readings:
//
//	case                 allocs  MB     under -race  (before value-fold sets moved as bitmaps)
//	sssp2d                7280   1.469  7725, 1.483  (7403, 1.528; 7852, 1.543)
//	multibfs1d            2150   2.177  2166, 2.178  (3546, 2.590; 3693, 2.611)
//	multibfs2d-service     413   3.697   530, 4.353  (564, 4.219; 694, 4.880)
//	bfs2d                 1188   0.428  1377, 0.511
//	bfs2d-service          408   0.622   503, 0.748
//
// The race detector's runs (make race) read higher. Two cases move by one
// allocation from run to run: multibfs2d-service reads 413 or 414 (529
// or 530 under -race) and sssp2d now and then 7281. Both run a column
// expand under the overlapped schedule, whose parts arrive in an order
// the goroutines' interleaving picks, and the staging the column's
// arrivals decode into (frontier.AppendDecode) grows by append each time
// a part outgrows every earlier one: six runs of multibfs2d-service's
// memory profile count 14 to 17 such growths. A one-allocation wobble is
// far inside the margins. Count ceilings sit about 20% over the count
// they were set at — sssp2d's, multibfs1d's and multibfs2d-service's
// over their -race readings above; bfs2d's and bfs2d-service's over 1387
// and 515, before the top-down sets were built once; before the
// transport stopped allocating per message sssp2d, bfs2d and
// bfs2d-service took 72857, 9769 and 2133 — and bytes ceilings about 15%
// over the higher reading they were set at (the three value-fold cases'
// over their -race readings above). graphd's allocs per query sit about
// 170 above bfs2d-service's. Raise a ceiling only with the cause in hand.
func TestAllocBudgets(t *testing.T) {
	const n = 6000
	gU, err := Generate(n, 10, 21)
	if err != nil {
		t.Fatal(err)
	}
	gW, err := GenerateWeighted(n, 10, 21, WithMaxWeight(256))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{R: 4, C: 4})
	if err != nil {
		t.Fatal(err)
	}
	distribute := func(g *Graph, part Partition) *DistGraph {
		dg, err := cl.Distribute(g, WithPartition(part))
		if err != nil {
			t.Fatal(err)
		}
		return dg
	}
	dgW, dgU, dg1 := distribute(gW, Part2D), distribute(gU, Part2D), distribute(gU, Part1DCol)
	src := gU.LargestComponentVertex()
	lanes := make([]Vertex, 16)
	for i := range lanes {
		lanes[i] = Vertex((int(src) + 331*i) % n)
	}

	// The service shape: graphd's 2x2 replica over the lab's n = 20000
	// weighted graph, a lone query's direction-optimizing hybrid BFS.
	gS, err := GenerateWeighted(20000, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	clS, err := NewCluster(ClusterConfig{R: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	dgS, err := clS.Distribute(gS, WithPartition(Part2D))
	if err != nil {
		t.Fatal(err)
	}
	srcS := gS.LargestComponentVertex()

	lanesS := make([]Vertex, 8)
	for i := range lanesS {
		lanesS[i] = Vertex((int(srcS) + 2477*i) % 20000)
	}

	cases := []struct {
		name    string
		ceiling float64
		mb      float64 // bytes ceiling, MB
		run     func() error
	}{
		{"sssp2d", 9270, 1.71, func() error {
			_, err := cl.SSSP(dgW, src, WithWire(WireHybrid), WithDelta(25))
			return err
		}},
		{"multibfs1d", 2600, 2.51, func() error {
			_, err := cl.MultiBFS(dg1, lanes, WithWire(WireHybrid))
			return err
		}},
		{"multibfs2d-service", 636, 5.01, func() error {
			_, err := clS.MultiBFS(dgS, lanesS, WithWire(WireHybrid))
			return err
		}},
		{"bfs2d", 1665, 0.56, func() error {
			_, err := cl.BFS(dgU, src, WithDirection(TopDown), WithWire(WireSparse))
			return err
		}},
		{"bfs2d-service", 620, 0.82, func() error {
			_, err := clS.BFS(dgS, srcS, WithDirection(DirectionOptimizing), WithWire(WireHybrid))
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); err != nil { // warm-up, and the only error check
				t.Fatal(err)
			}
			got, mb := allocsPerRun(5, func() { _ = tc.run() })
			t.Logf("%.0f allocations, %.3f MB per run (ceilings %.0f, %.3f)", got, mb, tc.ceiling, tc.mb)
			if got > tc.ceiling {
				t.Errorf("%.0f allocations per run, over the budget of %.0f", got, tc.ceiling)
			}
			if mb > tc.mb {
				t.Errorf("%.3f MB allocated per run, over the budget of %.3f", mb, tc.mb)
			}
		})
	}
}

// allocsPerRun is testing.AllocsPerRun reading bytes too: the mean
// allocation count and MB (MemStats.TotalAlloc) of runs calls of f, at
// GOMAXPROCS 1 after one warm-up call.
func allocsPerRun(runs int, f func()) (allocs, mb float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs)), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs) / 1e6
}
