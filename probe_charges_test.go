package bgl

import (
	"errors"
	"fmt"
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
	// read takes a run's reading; doneWant < 0 expects the run to finish,
	// otherwise a *Canceled after exactly that many whole units with the
	// partial Result beside it.
	read := func(doneWant int, err error, r func() reading) (reading, error) {
		var cxl *Canceled
		switch {
		case doneWant < 0 && err != nil:
			return reading{}, err
		case doneWant >= 0 && !errors.As(err, &cxl):
			return reading{}, fmt.Errorf("want a *Canceled, got %v", err)
		case doneWant >= 0 && cxl.Done != doneWant:
			return reading{}, fmt.Errorf("canceled after %d %ss, want %d", cxl.Done, cxl.Unit, doneWant)
		}
		return r(), nil
	}
	bfsDone := func(doneWant int, opts ...Option) runFn {
		return func(cl *Cluster, dg *DistGraph) (reading, error) {
			res, err := cl.BFS(dg, dg.Graph().LargestComponentVertex(), opts...)
			return read(doneWant, err, func() reading {
				return reading{res.HashProbes, res.TotalEdgesScanned, res.TotalExpandWords + res.TotalFoldWords, sim(res.SimTime)}
			})
		}
	}
	bfs := func(opts ...Option) runFn { return bfsDone(-1, opts...) }
	// The bi-directional search runs between the component's anchor and
	// a vertex half the id space away.
	bi := func(opts ...Option) runFn {
		return func(cl *Cluster, dg *DistGraph) (reading, error) {
			s := dg.Graph().LargestComponentVertex()
			res, err := cl.BiSearch(dg, s, Vertex((int(s)+n/2)%n), opts...)
			return read(-1, err, func() reading {
				return reading{res.HashProbes, res.TotalEdgesScanned, res.TotalExpandWords + res.TotalFoldWords, sim(res.SimTime)}
			})
		}
	}
	multi := func(opts ...Option) runFn {
		return func(cl *Cluster, dg *DistGraph) (reading, error) {
			res, err := cl.MultiBFS(dg, lanes, opts...)
			return read(-1, err, func() reading {
				return reading{res.HashProbes, res.TotalEdgesScanned, res.TotalExpandWords + res.TotalFoldWords, sim(res.SimTime)}
			})
		}
	}
	// Δ-stepping reports no probe count of its own; its column probes
	// show in the simulated clock.
	ssspDone := func(doneWant int, opts ...Option) runFn {
		return func(cl *Cluster, dg *DistGraph) (reading, error) {
			res, err := cl.SSSP(dg, dg.Graph().LargestComponentVertex(), opts...)
			return read(doneWant, err, func() reading {
				return reading{0, res.TotalEdgesScanned, res.TotalWords(), sim(res.SimTime)}
			})
		}
	}
	sssp := func(opts ...Option) runFn { return ssspDone(-1, opts...) }
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
		// The rows below pin what the superstep scaffold of PR 20 moved —
		// every fold algorithm under both schedules, the bi-directional
		// driver, the value folds on the 1D engines and a canceled run of
		// each family — read at the commit before it (PR 17).
		{"2d/fold-direct/sync", 4, 4, Part2D, gU,
			bfs(WithDirection(TopDown), WithFold(FoldDirect), WithAsync(false)), reading{86492, 55112, 30407, "0.0016198399999999985"}},
		{"2d/fold-direct/async", 4, 4, Part2D, gU,
			bfs(WithDirection(TopDown), WithFold(FoldDirect), WithAsync(true)), reading{86492, 55112, 30407, "0.0013142442857142853"}},
		{"2d/fold-twophase-nounion/sync", 4, 4, Part2D, gU,
			bfs(WithDirection(TopDown), WithFold(FoldTwoPhaseNoUnion), WithAsync(false)), reading{86492, 55112, 35708, "0.0015692328571428559"}},
		{"2d/fold-twophase-nounion/async", 4, 4, Part2D, gU,
			bfs(WithDirection(TopDown), WithFold(FoldTwoPhaseNoUnion), WithAsync(true)), reading{86492, 55112, 35708, "0.0013970671428571422"}},
		{"1d/fold-direct/sync", 1, 16, Part1DCol, gS,
			bfs(WithDirection(TopDown), WithFold(FoldDirect), WithAsync(false)), reading{18330, 16700, 14290, "0.002805452857142836"}},
		{"1d/fold-direct/async", 1, 16, Part1DCol, gS,
			bfs(WithDirection(TopDown), WithFold(FoldDirect), WithAsync(true)), reading{18330, 16700, 14290, "0.001729608571428564"}},
		{"1d/fold-twophase-nounion/sync", 1, 16, Part1DCol, gS,
			bfs(WithDirection(TopDown), WithFold(FoldTwoPhaseNoUnion), WithAsync(false)), reading{18330, 16700, 37142, "0.001680309999999995"}},
		{"1d/fold-twophase-nounion/async", 1, 16, Part1DCol, gS,
			bfs(WithDirection(TopDown), WithFold(FoldTwoPhaseNoUnion), WithAsync(true)), reading{18330, 16700, 37142, "0.0015065642857142825"}},
		{"2d/bisearch/sync", 4, 4, Part2D, gU,
			bi(WithAsync(false)), reading{277, 183, 354, "0.0004958642857142864"}},
		{"2d/bisearch/async", 4, 4, Part2D, gU,
			bi(WithAsync(true)), reading{277, 183, 354, "0.0004446485714285717"}},
		{"1d/bisearch/sync", 1, 16, Part1DCol, gS,
			bi(WithAsync(false)), reading{230, 198, 2322, "0.001269862857142853"}},
		{"1d/bisearch/async", 1, 16, Part1DCol, gS,
			bi(WithAsync(true)), reading{230, 198, 2322, "0.0011905857142857105"}},
		{"1d/multibfs/sync", 1, 16, Part1DCol, gS,
			multi(WithAsync(false)), reading{0, 86885, 131880, "0.0037615357142856878"}},
		{"1d/multibfs/async/hybrid", 1, 16, Part1DCol, gS,
			multi(WithWire(WireHybrid), WithAsync(true)), reading{0, 86885, 80210, "0.0021250485714285616"}},
		{"2d/multibfs/sync", 4, 4, Part2D, gU,
			multi(WithAsync(false)), reading{63216, 171787, 156776, "0.0029950199999999962"}},
		{"1d/sssp/sync", 1, 16, Part1DCol, gW,
			sssp(WithDelta(25), WithAsync(false)), reading{0, 111542, 104353, "0.0115058185714285"}},
		{"1d/sssp/async/hybrid", 1, 16, Part1DCol, gW,
			sssp(WithWire(WireHybrid), WithDelta(25), WithAsync(true)), reading{0, 111542, 78578, "0.007020760000000238"}},
		{"2d/sssp/sync", 4, 4, Part2D, gW,
			sssp(WithDelta(25), WithAsync(false)), reading{0, 111542, 135477, "0.007296898571428788"}},
		{"2d/topdown/simbudget-canceled", 4, 4, Part2D, gU,
			bfsDone(5, WithDirection(TopDown), WithSimBudget(0.0005)), reading{66091, 42411, 28107, "0.0011775357142857145"}},
		{"2d/sssp/simbudget-canceled", 4, 4, Part2D, gW,
			ssspDone(22, WithDelta(25), WithSimBudget(0.002)), reading{0, 4657, 5356, "0.002045172857142852"}},
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
