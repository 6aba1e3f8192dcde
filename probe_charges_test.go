package bgl

import (
	"strconv"
	"testing"
)

// TestProbeChargesPinned holds the simulated cost of the local indexing
// still: the stores resolve a partial edge list's row (or 1D target)
// index when the graph is distributed and carry, per row, the probe
// count a hash lookup of it would take, so a search no longer hashes a
// scanned neighbor — but the model must not notice. Hash probes, edge
// entries scanned, payload words and the simulated clock of each
// configuration are pinned to the values read at the commit before the
// change (PR 16), when every scanned neighbor went through
// localindex.Map.GetCounted. Any drift means a lookup is charged
// differently than the map would have charged it.
func TestProbeChargesPinned(t *testing.T) {
	// n and the degrees are chosen so that lookups do collide: a map's
	// hash is a bijection on the low bits of the id, so two keys share a
	// slot only when they differ by a multiple of its capacity, which
	// needs key sets sparse in their id span — a 4x4 rank's rows at
	// n = 5500 (capacity 4096 under blocks 1375 ids apart), a 1D rank's
	// targets at k = 3.
	const n = 5500
	gU, err := Generate(n, 10, 21)
	if err != nil {
		t.Fatal(err)
	}
	gS, err := Generate(n, 3, 21)
	if err != nil {
		t.Fatal(err)
	}
	gW, err := GenerateWeighted(n, 10, 21, WithMaxWeight(256))
	if err != nil {
		t.Fatal(err)
	}
	src := gU.LargestComponentVertex()
	lanes := make([]Vertex, 16)
	for i := range lanes {
		lanes[i] = Vertex((int(src) + 331*i) % n)
	}

	type reading struct {
		probes       uint64
		edges, words int64
		simTime      string // strconv 'g', shortest exact form
	}
	type runFn func(cl *Cluster, dg *DistGraph) (reading, error)
	sim := func(s float64) string { return strconv.FormatFloat(s, 'g', -1, 64) }
	bfs := func(opts ...Option) runFn {
		return func(cl *Cluster, dg *DistGraph) (reading, error) {
			res, err := cl.BFS(dg, dg.Graph().LargestComponentVertex(), opts...)
			if err != nil {
				return reading{}, err
			}
			return reading{res.HashProbes, res.TotalEdgesScanned, res.TotalExpandWords + res.TotalFoldWords, sim(res.SimTime)}, nil
		}
	}
	multi := func(opts ...Option) runFn {
		return func(cl *Cluster, dg *DistGraph) (reading, error) {
			res, err := cl.MultiBFS(dg, lanes, opts...)
			if err != nil {
				return reading{}, err
			}
			return reading{res.HashProbes, res.TotalEdgesScanned, res.TotalExpandWords + res.TotalFoldWords, sim(res.SimTime)}, nil
		}
	}
	// Δ-stepping reports no probe count of its own; its column probes
	// show in the simulated clock.
	sssp := func(opts ...Option) runFn {
		return func(cl *Cluster, dg *DistGraph) (reading, error) {
			res, err := cl.SSSP(dg, dg.Graph().LargestComponentVertex(), opts...)
			if err != nil {
				return reading{}, err
			}
			return reading{0, res.TotalEdgesScanned, res.TotalWords(), sim(res.SimTime)}, nil
		}
	}
	cases := []struct {
		name string
		r, c int
		part Partition
		g    *Graph
		run  runFn
		want reading
	}{
		{"2d/topdown/cache/targeted/w1/sync", 4, 4, Part2D, gU,
			bfs(WithDirection(TopDown), WithAsync(false)), reading{86492, 55112, 33553, "0.0015660328571428556"}},
		{"2d/topdown/cache/targeted/w4/async", 4, 4, Part2D, gU,
			bfs(WithDirection(TopDown), WithWorkers(4), WithAsync(true)), reading{86492, 55112, 33553, "0.0013937985714285708"}},
		{"2d/topdown/nocache/allgather/w1/async", 4, 4, Part2D, gU,
			bfs(WithDirection(TopDown), WithSentCache(false), WithExpand(ExpandAllGather), WithAsync(true)), reading{22000, 55112, 45007, "0.001130974285714285"}},
		{"2d/topdown/cache/allgather/w4/sync", 4, 4, Part2D, gU,
			bfs(WithDirection(TopDown), WithExpand(ExpandAllGather), WithWorkers(4), WithAsync(false)), reading{88184, 55112, 34824, "0.0015862385714285698"}},
		{"2d/dirop/cache/targeted/w1/async/hybrid", 4, 4, Part2D, gU,
			bfs(WithDirection(DirectionOptimizing), WithWire(WireHybrid), WithAsync(true)), reading{12356, 14508, 4322, "0.0012842571428571406"}},
		{"2d/dirop/nocache/targeted/w4/sync", 4, 4, Part2D, gU,
			bfs(WithDirection(DirectionOptimizing), WithSentCache(false), WithWorkers(4), WithAsync(false)), reading{2734, 14508, 11619, "0.0013868285714285678"}},
		{"3x2/topdown/cache/twophase/w4/async", 3, 2, Part2D, gU,
			bfs(WithDirection(TopDown), WithExpand(ExpandTwoPhase), WithWorkers(4), WithAsync(true)), reading{71612, 55112, 16463, "0.002311599999999999"}},
		{"1drow/dirop/cache/targeted/w1/sync", 4, 1, Part1DRow, gU,
			bfs(WithDirection(DirectionOptimizing), WithAsync(false)), reading{10708, 14533, 4111, "0.0027774599999999955"}},
		{"1d/topdown/cache/w1/sync", 1, 16, Part1DCol, gS,
			bfs(WithDirection(TopDown), WithAsync(false)), reading{18330, 16700, 35349, "0.0016788257142857095"}},
		{"1d/topdown/nocache/w4/async", 1, 16, Part1DCol, gS,
			bfs(WithDirection(TopDown), WithSentCache(false), WithWorkers(4), WithAsync(true)), reading{0, 16700, 37142, "0.0013453199999999964"}},
		{"1d/dirop/cache/w4/async", 1, 16, Part1DCol, gS,
			bfs(WithDirection(DirectionOptimizing), WithWorkers(4), WithAsync(true)), reading{2285, 16564, 21986, "0.002051958571428565"}},
		{"1d/dirop/cache/w1/sync/hybrid", 1, 16, Part1DCol, gS,
			bfs(WithDirection(DirectionOptimizing), WithWire(WireHybrid), WithAsync(false)), reading{2285, 16564, 16068, "0.0024255485714285577"}},
		{"2d/multibfs/w4/async/hybrid", 4, 4, Part2D, gU,
			multi(WithWire(WireHybrid), WithWorkers(4), WithAsync(true)), reading{63216, 171787, 61652, "0.0024531300000000004"}},
		{"2d/sssp/w4/async/hybrid", 4, 4, Part2D, gW,
			sssp(WithWire(WireHybrid), WithDelta(25), WithWorkers(4), WithAsync(true)), reading{0, 111542, 89945, "0.005295591428571507"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := NewCluster(ClusterConfig{R: tc.r, C: tc.c})
			if err != nil {
				t.Fatal(err)
			}
			dg, err := cl.Distribute(tc.g, WithPartition(tc.part))
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.run(cl, dg)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("got  %#v\nwant %#v", got, tc.want)
			}
		})
	}
}
