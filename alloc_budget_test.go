package bgl

import "testing"

// TestAllocBudgets pins the heap allocations of one traversal per
// engine family on a small fixed graph, counted over every rank's
// goroutine. The engines allocate their combine scratch — combiner
// arrays, raw per-destination bins, expand and decode staging — once
// per rank per run; an allocation that creeps back into the
// per-superstep path multiplies by levels x ranks x bins and lands far
// above these ceilings, which sit about 20% over the measured counts
// (72857, 28702 and 9769; they repeat to within a few allocations, and
// the sort-and-reallocate engines before the Combiner took 117967,
// 48438 and 10459). Raise a ceiling only with the cause in hand.
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

	cases := []struct {
		name    string
		ceiling float64
		run     func() error
	}{
		{"sssp2d", 87000, func() error {
			_, err := cl.SSSP(dgW, src, WithWire(WireHybrid), WithDelta(25))
			return err
		}},
		{"multibfs1d", 34500, func() error {
			_, err := cl.MultiBFS(dg1, lanes, WithWire(WireHybrid))
			return err
		}},
		{"bfs2d", 11700, func() error {
			_, err := cl.BFS(dgU, src, WithDirection(TopDown), WithWire(WireSparse))
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); err != nil { // warm-up, and the only error check
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(5, func() { _ = tc.run() })
			t.Logf("%.0f allocations per run (ceiling %.0f)", got, tc.ceiling)
			if got > tc.ceiling {
				t.Errorf("%.0f allocations per run, over the budget of %.0f", got, tc.ceiling)
			}
		})
	}
}
