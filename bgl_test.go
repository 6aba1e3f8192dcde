package bgl

import (
	"bytes"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	g, err := Generate(2000, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{R: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cl.Distribute(g)
	if err != nil {
		t.Fatal(err)
	}
	src := g.LargestComponentVertex()
	res, err := cl.BFS(dg, src)
	if err != nil {
		t.Fatal(err)
	}
	serial := g.SerialBFS(src)
	for v, want := range serial {
		if res.Levels[v] != want {
			t.Fatalf("level[%d] = %d, want %d", v, res.Levels[v], want)
		}
	}
	if res.SimTime <= 0 {
		t.Error("no simulated time")
	}
}

func TestSearchAndBiSearchAgree(t *testing.T) {
	g, err := Generate(1500, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{R: 2, C: 3})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cl.Distribute(g)
	if err != nil {
		t.Fatal(err)
	}
	s := g.LargestComponentVertex()
	serial := g.SerialBFS(s)
	var far Vertex
	for v, l := range serial {
		if l != Unreached && l > serial[far] {
			far = Vertex(v)
		}
	}
	uni, err := cl.Search(dg, s, far)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := cl.BiSearch(dg, s, far)
	if err != nil {
		t.Fatal(err)
	}
	if !uni.Found || !bi.Found {
		t.Fatalf("searches did not find reachable target: uni=%v bi=%v", uni.Found, bi.Found)
	}
	if uni.Distance != serial[far] || bi.Distance != serial[far] {
		t.Fatalf("distances: uni=%d bi=%d serial=%d", uni.Distance, bi.Distance, serial[far])
	}
}

func TestOptionsApply(t *testing.T) {
	g, err := Generate(800, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{R: 2, C: 2, Mapping: MapRowMajor, ClusterModel: true})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cl.Distribute(g)
	if err != nil {
		t.Fatal(err)
	}
	src := g.LargestComponentVertex()
	res, err := cl.BFS(dg, src,
		WithExpand(ExpandAllGather),
		WithFold(FoldDirect),
		WithSentCache(false),
		WithChunkWords(128),
		WithMaxLevels(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLevel() > 3 {
		t.Errorf("MaxLevels option ignored: depth %d", res.MaxLevel())
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{R: 0, C: 4}); err == nil {
		t.Error("R=0 accepted")
	}
	if _, err := NewCluster(ClusterConfig{R: 2, C: 2, Mapping: MappingKind(99)}); err == nil {
		t.Error("unknown mapping accepted")
	}
}

func TestAnalyticReexports(t *testing.T) {
	if Gamma(100, 1e6, 10) <= 0 {
		t.Error("Gamma re-export broken")
	}
	if Expected1DFold(1e6, 10, 16) <= 0 {
		t.Error("Expected1DFold re-export broken")
	}
	if Expected2DExpand(1e6, 10, 4, 4) <= 0 || Expected2DFold(1e6, 10, 4, 4) <= 0 {
		t.Error("2D expectation re-exports broken")
	}
	if _, err := CrossoverK(4e7, 400, 1000); err != nil {
		t.Errorf("CrossoverK: %v", err)
	}
}

func TestFromEdgesFacade(t *testing.T) {
	g, err := FromEdges(4, [][2]Vertex{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g.SerialDistance(0, 3) != 3 {
		t.Error("facade distance wrong")
	}
	cl, err := NewCluster(ClusterConfig{R: 1, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cl.Distribute(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Search(dg, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Distance != 3 {
		t.Errorf("distributed distance = %d found=%v", res.Distance, res.Found)
	}
}

func TestPathReconstruction(t *testing.T) {
	g, err := Generate(3000, 6, 21)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{R: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cl.Distribute(g)
	if err != nil {
		t.Fatal(err)
	}
	s := g.LargestComponentVertex()
	serial := g.SerialBFS(s)
	var far Vertex
	for v, l := range serial {
		if l != Unreached && l > serial[far] {
			far = Vertex(v)
		}
	}
	path, res, err := cl.Path(dg, s, far)
	if err != nil {
		t.Fatal(err)
	}
	if int32(len(path)-1) != serial[far] || res.Distance != serial[far] {
		t.Fatalf("path length %d, result distance %d, serial %d", len(path)-1, res.Distance, serial[far])
	}
	if path[0] != s || path[len(path)-1] != far {
		t.Fatalf("path endpoints %d..%d, want %d..%d", path[0], path[len(path)-1], s, far)
	}
	// Every consecutive pair must be an edge.
	for i := 1; i < len(path); i++ {
		ok := false
		for _, u := range g.Neighbors(path[i-1]) {
			if u == path[i] {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("path step %d->%d is not an edge", path[i-1], path[i])
		}
	}
	// Unreachable target errors.
	if _, _, err := cl.Path(dg, s, s); err != nil {
		t.Fatalf("trivial path failed: %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g, err := Generate(800, 5, 33)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed graph: %d/%d vs %d/%d",
			back.N(), back.NumEdges(), g.N(), g.NumEdges())
	}
	src := g.LargestComponentVertex()
	a, b := g.SerialBFS(src), back.SerialBFS(src)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("levels differ at %d after round trip", v)
		}
	}
}

func TestRelabelFacade(t *testing.T) {
	g, err := Generate(500, 4, 34)
	if err != nil {
		t.Fatal(err)
	}
	rg, perm := g.Relabel(5)
	if rg.N() != g.N() || len(perm) != g.N() {
		t.Fatal("relabel changed size")
	}
	src := g.LargestComponentVertex()
	a := g.SerialBFS(src)
	b := rg.SerialBFS(perm[src])
	for v := range a {
		if a[v] != b[perm[v]] {
			t.Fatalf("levels not equivariant at %d", v)
		}
	}
}

func TestDistGraphMemory(t *testing.T) {
	g, err := Generate(4000, 8, 35)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{R: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cl.Distribute(g)
	if err != nil {
		t.Fatal(err)
	}
	stats := dg.Memory()
	if len(stats) != 4 {
		t.Fatalf("%d ranks of memory stats", len(stats))
	}
	totalOwned := 0
	for _, m := range stats {
		totalOwned += m.OwnedVertices
		if m.NonEmptyColumns > m.DenseColumns {
			t.Fatalf("non-empty columns %d above dense bound %d", m.NonEmptyColumns, m.DenseColumns)
		}
		if m.NonEmptyColumns > m.EdgeEntries {
			t.Fatal("more non-empty columns than entries")
		}
	}
	if totalOwned != g.N() {
		t.Fatalf("owned vertices sum %d != n %d", totalOwned, g.N())
	}
}

func TestResultNetworkMetrics(t *testing.T) {
	g, err := Generate(2000, 6, 36)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{R: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cl.Distribute(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.BFS(dg, g.LargestComponentVertex())
	if err != nil {
		t.Fatal(err)
	}
	if res.MsgsRecv == 0 || res.LinksUsed == 0 || res.MaxLinkBytes == 0 {
		t.Errorf("network metrics empty: msgs=%d links=%d max=%d",
			res.MsgsRecv, res.LinksUsed, res.MaxLinkBytes)
	}
	if res.AvgHopsPerMessage() <= 0 {
		t.Error("no hops recorded")
	}
	if im := res.LoadImbalance(); im < 1 {
		t.Errorf("load imbalance %g below 1", im)
	}
}

func TestSSSPQuickstartFlow(t *testing.T) {
	g, err := GenerateWeighted(2000, 8, 42, WithWeightDist(WeightUniform), WithMaxWeight(64))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("GenerateWeighted produced an unweighted graph")
	}
	if min, max := g.EdgeWeightRange(); min < 1 || max > 64 || min > max {
		t.Fatalf("weight range [%d, %d] outside [1, 64]", min, max)
	}
	cl, err := NewCluster(ClusterConfig{R: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cl.Distribute(g)
	if err != nil {
		t.Fatal(err)
	}
	src := g.LargestComponentVertex()
	res, err := cl.SSSP(dg, src, WithWire(WireHybrid), WithChunkWords(4096))
	if err != nil {
		t.Fatal(err)
	}
	want := g.SerialDijkstra(src)
	for v, d := range res.Dist {
		if d != want[v] {
			t.Fatalf("dist[%d] = %d, serial dijkstra %d", v, d, want[v])
		}
	}
	if res.Delta == 0 {
		t.Fatal("auto delta not recorded")
	}
	if res.Epochs == 0 || res.BucketsDrained == 0 || res.TotalRelaxations == 0 {
		t.Fatalf("empty run stats: epochs=%d buckets=%d relax=%d",
			res.Epochs, res.BucketsDrained, res.TotalRelaxations)
	}
}

func TestSSSPDeltaOptionAndUnweighted(t *testing.T) {
	// SSSP on an unweighted graph runs with unit weights: distances are
	// BFS levels, under both degenerate Δ choices.
	g, err := Generate(1200, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{R: 1, C: 4})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cl.Distribute(g)
	if err != nil {
		t.Fatal(err)
	}
	src := g.LargestComponentVertex()
	levels := g.SerialBFS(src)
	for _, delta := range []uint32{1, DeltaInf} {
		res, err := cl.SSSP(dg, src, WithDelta(delta))
		if err != nil {
			t.Fatal(err)
		}
		for v, l := range levels {
			want := MaxDist
			if l != Unreached {
				want = uint32(l)
			}
			if res.Dist[v] != want {
				t.Fatalf("delta %d: dist[%d] = %d, want level %d", delta, v, res.Dist[v], l)
			}
		}
	}
}

func TestWeightedSaveLoadRoundTrip(t *testing.T) {
	g, err := FromWeightedEdges(4, [][2]Vertex{{0, 1}, {1, 2}, {2, 3}}, []uint32{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Weighted() {
		t.Fatal("weights dropped through Save/Load")
	}
	want := g.SerialDijkstra(0)
	got := back.SerialDijkstra(0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %d after round trip, want %d", v, got[v], want[v])
		}
	}
}
