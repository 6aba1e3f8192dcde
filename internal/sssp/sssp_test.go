package sssp

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/partition"
)

// fixture distributes one weighted graph over a mesh with a world.
type fixture struct {
	g      *graph.CSR
	stores []*partition.Store2D
	world  *comm.World
	src    graph.Vertex
}

func build2D(t testing.TB, g *graph.CSR, r, c int) *fixture {
	t.Helper()
	l, err := partition.NewLayout2D(g.N, r, c)
	if err != nil {
		t.Fatal(err)
	}
	stores, err := partition.Build2DWeighted(l, g.VisitWeightedEdges)
	if err != nil {
		t.Fatal(err)
	}
	w, err := comm.NewWorld(comm.Config{P: r * c})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{g: g, stores: stores, world: w, src: graph.LargestComponentVertex(g)}
}

// build1D distributes g under the conventional 1D partitioning: the 2D
// layout on a 1 x p mesh.
func build1D(t testing.TB, g *graph.CSR, p int) ([]*partition.Store2D, *comm.World) {
	t.Helper()
	fx := build2D(t, g, 1, p)
	return fx.stores, fx.world
}

func poisson(t testing.TB, n int, k float64, seed int64, dist graph.WeightDist, maxW uint32) *graph.CSR {
	t.Helper()
	g, err := graph.GenerateWeighted(graph.Params{N: n, K: k, Seed: seed},
		graph.WeightSpec{Dist: dist, MaxWeight: maxW, Seed: seed + 77})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func checkDist(t *testing.T, label string, got, want []uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d distances, want %d", label, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: dist[%d] = %d, want %d", label, v, got[v], want[v])
		}
	}
}

var testMeshes = [][2]int{{1, 1}, {1, 4}, {4, 1}, {2, 2}, {4, 4}}

// TestDeltaSteppingMatchesDijkstraMeshesAndCodecs is the headline
// oracle-equivalence matrix: distributed Δ-stepping distances equal
// serial Dijkstra on a weighted Poisson graph, across every tested
// mesh shape and every wire codec.
func TestDeltaSteppingMatchesDijkstraMeshesAndCodecs(t *testing.T) {
	g := poisson(t, 1200, 6, 4, graph.WeightUniform, 60)
	want := graph.Dijkstra(g, graph.LargestComponentVertex(g))
	wires := []frontier.WireMode{frontier.WireSparse, frontier.WireDense, frontier.WireAuto, frontier.WireHybrid}
	for _, mesh := range testMeshes {
		fx := build2D(t, g, mesh[0], mesh[1])
		for _, wire := range wires {
			opts := DefaultOptions(fx.src)
			opts.Wire = wire
			res, err := Run2D(fx.world, fx.stores, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkDist(t, fmt.Sprintf("mesh %dx%d wire %v", mesh[0], mesh[1], wire), res.Dist, want)
		}
	}
}

// TestDeltaSteppingDeltaLadderMatchesDijkstra pins correctness across
// bucket widths, from the Dijkstra-like extreme through interior Δ to
// the Bellman-Ford degenerate.
func TestDeltaSteppingDeltaLadderMatchesDijkstra(t *testing.T) {
	g := poisson(t, 900, 5, 6, graph.WeightExponential, 80)
	src := graph.LargestComponentVertex(g)
	want := graph.Dijkstra(g, src)
	fx := build2D(t, g, 2, 2)
	for _, delta := range []uint32{g.MinEdgeWeight(), 5, 20, g.MaxEdgeWeight(), DeltaInf} {
		opts := DefaultOptions(src)
		opts.Delta = delta
		res, err := Run2D(fx.world, fx.stores, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkDist(t, fmt.Sprintf("delta %d", delta), res.Dist, want)
		if res.Delta != delta {
			t.Fatalf("delta %d: result reports %d", delta, res.Delta)
		}
	}
}

// TestDeltaSteppingHandBuilt exercises hand-built weighted graphs
// whose shortest paths differ from their hop-counts, across all
// meshes (padding isolates the interesting structure from the block
// partition boundaries).
func TestDeltaSteppingHandBuilt(t *testing.T) {
	graphs := []struct {
		name    string
		n       int
		edges   [][2]graph.Vertex
		weights []uint32
		src     graph.Vertex
	}{
		{
			// Long direct edge loses to a three-hop detour.
			"detour", 16,
			[][2]graph.Vertex{{0, 9}, {0, 3}, {3, 6}, {6, 9}, {9, 12}},
			[]uint32{100, 10, 10, 10, 1},
			0,
		},
		{
			// Two routes meeting with equal weight; plus a far component.
			"tie", 12,
			[][2]graph.Vertex{{0, 1}, {1, 5}, {0, 4}, {4, 5}, {10, 11}},
			[]uint32{2, 3, 3, 2, 7},
			0,
		},
		{
			// Chain whose weights force repeated in-bucket re-settling
			// for large Δ: later relaxations improve earlier results.
			"resettle", 8,
			[][2]graph.Vertex{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {3, 4}, {4, 5}},
			[]uint32{1, 1, 1, 9, 1, 1},
			0,
		},
	}
	for _, tc := range graphs {
		g, err := graph.FromWeightedEdges(tc.n, tc.edges, tc.weights)
		if err != nil {
			t.Fatal(err)
		}
		want := graph.Dijkstra(g, tc.src)
		for _, mesh := range testMeshes {
			fx := build2D(t, g, mesh[0], mesh[1])
			for _, delta := range []uint32{1, 4, DeltaInf, 0} {
				opts := DefaultOptions(tc.src)
				opts.Delta = delta
				opts.Wire = frontier.WireHybrid
				res, err := Run2D(fx.world, fx.stores, opts)
				if err != nil {
					t.Fatal(err)
				}
				checkDist(t, fmt.Sprintf("%s mesh %dx%d delta %d", tc.name, mesh[0], mesh[1], delta), res.Dist, want)
			}
		}
	}
}

// TestDeltaStepping1DEngineMatchesOracle pins the 1 x P meshes, where
// the engine runs Algorithm 1's rounds, to the oracle and
// differentially to a 2 x 2 mesh: identical distances AND identical
// global relaxation/re-settle/edge counts, because both partitionings
// deliver the same per-epoch request sets.
func TestDeltaStepping1DEngineMatchesOracle(t *testing.T) {
	g := poisson(t, 800, 6, 9, graph.WeightUniform, 40)
	src := graph.LargestComponentVertex(g)
	want := graph.Dijkstra(g, src)
	for _, p := range []int{1, 3, 4} {
		stores, w := build1D(t, g, p)
		for _, wire := range []frontier.WireMode{frontier.WireSparse, frontier.WireAuto, frontier.WireHybrid} {
			opts := DefaultOptions(src)
			opts.Wire = wire
			res, err := Run2D(w, stores, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkDist(t, fmt.Sprintf("1D P=%d wire %v", p, wire), res.Dist, want)
		}
	}

	// Differential: 1D vs 2D partitioning on equal Δ.
	stores1, w1 := build1D(t, g, 4)
	fx := build2D(t, g, 2, 2)
	opts := DefaultOptions(src)
	opts.Delta = 10
	r1, err := Run2D(w1, stores1, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run2D(fx.world, fx.stores, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkDist(t, "1D vs 2D", r1.Dist, r2.Dist)
	if r1.TotalRelaxations != r2.TotalRelaxations ||
		r1.TotalReSettles != r2.TotalReSettles ||
		r1.TotalEdgesScanned != r2.TotalEdgesScanned ||
		r1.Epochs != r2.Epochs {
		t.Fatalf("1D/2D trace divergence: relax %d/%d resettle %d/%d edges %d/%d epochs %d/%d",
			r1.TotalRelaxations, r2.TotalRelaxations, r1.TotalReSettles, r2.TotalReSettles,
			r1.TotalEdgesScanned, r2.TotalEdgesScanned, r1.Epochs, r2.Epochs)
	}
}

// TestUnitWeightsReproduceBFS: with unit weights, Δ-stepping is BFS —
// distances equal levels under any Δ, for weighted-unit stores and for
// plain unweighted stores (implicit weight 1).
func TestUnitWeightsReproduceBFS(t *testing.T) {
	params := graph.Params{N: 1500, K: 7, Seed: 12}
	unit, err := graph.GenerateWeighted(params, graph.WeightSpec{Dist: graph.WeightUnit, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := graph.LargestComponentVertex(unit)
	levels := graph.BFS(unit, src)
	for _, delta := range []uint32{1, 3, DeltaInf} {
		fx := build2D(t, unit, 2, 2)
		opts := DefaultOptions(src)
		opts.Delta = delta
		res, err := Run2D(fx.world, fx.stores, opts)
		if err != nil {
			t.Fatal(err)
		}
		for v, l := range levels {
			want := graph.MaxDist
			if l != graph.Unreached {
				want = uint32(l)
			}
			if res.Dist[v] != want {
				t.Fatalf("delta %d: dist[%d] = %d, want level %d", delta, v, res.Dist[v], l)
			}
		}
		if delta == 1 {
			// Δ=1 on unit weights: one bucket per BFS level, one light
			// round each, no re-settles, no heavy phases.
			if res.TotalReSettles != 0 {
				t.Fatalf("unit weights delta 1: %d re-settles", res.TotalReSettles)
			}
			maxLevel := int32(0)
			for _, l := range levels {
				if l > maxLevel {
					maxLevel = l
				}
			}
			if res.BucketsDrained != int(maxLevel)+1 {
				t.Fatalf("unit weights delta 1: drained %d buckets, want %d levels", res.BucketsDrained, maxLevel+1)
			}
		}
	}

	// Plain unweighted stores behave identically (implicit unit weights).
	plain, err := graph.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := partition.NewLayout2D(plain.N, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	stores, err := partition.Build2D(l2, func(fn func(u, v graph.Vertex)) error {
		return plain.VisitWeightedEdges(func(u, v graph.Vertex, w uint32) { fn(u, v) })
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := comm.NewWorld(comm.Config{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run2D(w, stores, DefaultOptions(src))
	if err != nil {
		t.Fatal(err)
	}
	for v, l := range levels {
		want := graph.MaxDist
		if l != graph.Unreached {
			want = uint32(l)
		}
		if res.Dist[v] != want {
			t.Fatalf("unweighted stores: dist[%d] = %d, want level %d", v, res.Dist[v], l)
		}
	}
}

// TestDeltaInfDegeneratesToBellmanFord: a single bucket whose light
// rounds are exactly the serial frontier Bellman-Ford epochs.
func TestDeltaInfDegeneratesToBellmanFord(t *testing.T) {
	g := poisson(t, 700, 5, 21, graph.WeightUniform, 50)
	src := graph.LargestComponentVertex(g)
	want, epochs := graph.BellmanFord(g, src)
	fx := build2D(t, g, 2, 2)
	opts := DefaultOptions(src)
	opts.Delta = DeltaInf
	res, err := Run2D(fx.world, fx.stores, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkDist(t, "delta=inf", res.Dist, want)
	if res.BucketsDrained != 1 {
		t.Fatalf("delta=inf drained %d buckets, want 1", res.BucketsDrained)
	}
	for _, es := range res.PerEpoch {
		if es.Phase != PhaseLight {
			t.Fatalf("delta=inf ran a %v phase", es.Phase)
		}
	}
	// The distributed trace runs the same relaxation waves as the
	// serial frontier Bellman-Ford, plus the final empty-check round
	// is absorbed into the loop exit (no epoch record).
	if res.Epochs != epochs {
		t.Fatalf("delta=inf ran %d epochs, serial Bellman-Ford %d", res.Epochs, epochs)
	}
}

// TestDeltaMinWeightSettlesLikeDijkstra: with Δ at (or below) the
// minimum edge weight no relaxation can land back in the open bucket,
// so nothing is ever re-settled — every bucket drains in one light
// round like Dijkstra settling a distance class.
func TestDeltaMinWeightSettlesLikeDijkstra(t *testing.T) {
	g := poisson(t, 700, 5, 22, graph.WeightUniform, 30)
	src := graph.LargestComponentVertex(g)
	fx := build2D(t, g, 2, 2)
	opts := DefaultOptions(src)
	opts.Delta = g.MinEdgeWeight()
	res, err := Run2D(fx.world, fx.stores, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkDist(t, "delta=minw", res.Dist, graph.Dijkstra(g, src))
	if res.TotalReSettles != 0 {
		t.Fatalf("delta=minw re-settled %d vertices, want 0", res.TotalReSettles)
	}
	lightRounds := map[uint32]int{}
	for _, es := range res.PerEpoch {
		if es.Phase == PhaseLight {
			lightRounds[es.Bucket]++
		}
	}
	for b, n := range lightRounds {
		if n != 1 {
			t.Fatalf("delta=minw bucket %d took %d light rounds, want 1", b, n)
		}
	}
}

// TestRelaxationMonotonicityAcrossDelta: wider buckets speculate
// more. Along a dyadic Δ ladder (each width dividing the next, so the
// bucket partitions nest), re-settles — the redundant re-relaxation
// work Δ-stepping trades for fewer epochs — never decrease as Δ grows,
// from exactly zero at Δ = min weight to their maximum at Δ = ∞; the
// drained-bucket count never increases; and the Bellman-Ford extreme
// applies at least as many relaxations as the Dijkstra-like extreme.
// (Applied relaxations alone are not monotone at the small-Δ end: the
// per-epoch minimum-merge absorbs multi-path improvements that
// Dijkstra-like settling applies across separate epochs.)
func TestRelaxationMonotonicityAcrossDelta(t *testing.T) {
	g := poisson(t, 900, 6, 23, graph.WeightUniform, 64)
	src := graph.LargestComponentVertex(g)
	fx := build2D(t, g, 2, 2)
	ladder := []uint32{g.MinEdgeWeight(), 4, 16, 64, DeltaInf}
	var prevRes, prevBuckets int64 = -1, 1 << 62
	var prevDelta uint32
	var first, last *Result
	for _, delta := range ladder {
		opts := DefaultOptions(src)
		opts.Delta = delta
		res, err := Run2D(fx.world, fx.stores, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalReSettles < prevRes {
			t.Fatalf("re-settles dropped from %d (delta %d) to %d (delta %d)",
				prevRes, prevDelta, res.TotalReSettles, delta)
		}
		if int64(res.BucketsDrained) > prevBuckets {
			t.Fatalf("buckets grew from %d (delta %d) to %d (delta %d)",
				prevBuckets, prevDelta, res.BucketsDrained, delta)
		}
		prevRes, prevBuckets, prevDelta = res.TotalReSettles, int64(res.BucketsDrained), delta
		if first == nil {
			first = res
		}
		last = res
	}
	if first.TotalReSettles != 0 {
		t.Fatalf("delta=minw re-settled %d vertices", first.TotalReSettles)
	}
	if last.TotalReSettles == 0 {
		t.Fatal("delta=inf re-settled nothing; ladder exercises no speculation")
	}
	if last.TotalRelaxations < first.TotalRelaxations {
		t.Fatalf("Bellman-Ford extreme applied %d relaxations, fewer than Dijkstra-like %d",
			last.TotalRelaxations, first.TotalRelaxations)
	}
}

// TestDeterministicSimulatedClock: identical inputs yield an
// identical simulated clock and epoch trace — the simulator's core
// contract. (This pins the bucket scan to a deterministic order; a
// map-order scan would jitter the charged items.)
func TestDeterministicSimulatedClock(t *testing.T) {
	g := poisson(t, 600, 5, 31, graph.WeightUniform, 50)
	src := graph.LargestComponentVertex(g)
	opts := DefaultOptions(src)
	opts.Delta = 12
	var first *Result
	for i := 0; i < 3; i++ {
		fx := build2D(t, g, 2, 2)
		res, err := Run2D(fx.world, fx.stores, opts)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if res.SimTime != first.SimTime || res.SimComm != first.SimComm {
			t.Fatalf("run %d: simulated clock drifted: %.9f/%.9f vs %.9f/%.9f",
				i, res.SimTime, res.SimComm, first.SimTime, first.SimComm)
		}
		if res.Epochs != first.Epochs || res.TotalRelaxations != first.TotalRelaxations {
			t.Fatalf("run %d: trace drifted: epochs %d vs %d, relax %d vs %d",
				i, res.Epochs, first.Epochs, res.TotalRelaxations, first.TotalRelaxations)
		}
	}
}

// TestSSSPValidation covers the error paths.
func TestSSSPValidation(t *testing.T) {
	g := poisson(t, 100, 3, 30, graph.WeightUniform, 10)
	fx := build2D(t, g, 2, 2)
	if _, err := Run2D(fx.world, fx.stores, DefaultOptions(graph.Vertex(g.N))); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := Run2D(fx.world, nil, DefaultOptions(0)); err == nil {
		t.Fatal("missing stores accepted")
	}
	w4, err := comm.NewWorld(comm.Config{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run2D(w4, fx.stores, DefaultOptions(0)); err == nil {
		t.Fatal("world/layout mismatch accepted")
	}
}

// TestSSSPIsolatedSource: a source with no edges terminates with only
// itself reached, on every mesh.
func TestSSSPIsolatedSource(t *testing.T) {
	g, err := graph.FromWeightedEdges(9, [][2]graph.Vertex{{1, 2}}, []uint32{5})
	if err != nil {
		t.Fatal(err)
	}
	for _, mesh := range testMeshes {
		fx := build2D(t, g, mesh[0], mesh[1])
		res, err := Run2D(fx.world, fx.stores, DefaultOptions(0))
		if err != nil {
			t.Fatal(err)
		}
		if res.Reached() != 1 || res.Dist[0] != 0 {
			t.Fatalf("mesh %v: reached %d, dist[0]=%d", mesh, res.Reached(), res.Dist[0])
		}
	}
}

// TestRequestCodecRoundTrip pins the relax-request payload format
// under every wire mode.
func TestRequestCodecRoundTrip(t *testing.T) {
	vs := []uint32{100, 101, 107, 130, 1000, 4095}
	ds := []uint32{3, 9, 12, 1, 77, 2}
	for _, mode := range []frontier.WireMode{frontier.WireSparse, frontier.WireDense, frontier.WireAuto, frontier.WireHybrid} {
		var h frontier.ContainerHist
		buf := requestPayload{wire: mode, hist: &h}.Encode(vs, ds, 100, 4000)
		gvs, gds := requestPayload{}.Decode(buf, nil, nil)
		if len(gvs) != len(vs) {
			t.Fatalf("mode %v: %d vertices back, want %d", mode, len(gvs), len(vs))
		}
		for i := range vs {
			if gvs[i] != vs[i] || gds[i] != ds[i] {
				t.Fatalf("mode %v: pair %d = (%d,%d), want (%d,%d)", mode, i, gvs[i], gds[i], vs[i], ds[i])
			}
		}
		if h.Payloads() != 1 {
			t.Fatalf("mode %v: %d payloads tallied", mode, h.Payloads())
		}
	}
	if (requestPayload{wire: frontier.WireHybrid}).Encode(nil, nil, 0, 10) != nil {
		t.Fatal("empty batch should encode to nil")
	}
	if vs, ds := (requestPayload{}).Decode(nil, nil, nil); len(vs) != 0 || len(ds) != 0 {
		t.Fatal("nil payload should decode empty")
	}
}
