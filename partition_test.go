package bgl

import (
	"strings"
	"testing"
)

var allPartitions = []Partition{Part2D, Part1DRow, Part1DCol}

// TestBFSAllPartitionings runs the same full traversal through the one
// public entry point on all three partitionings and checks every
// result against the serial oracle.
func TestBFSAllPartitionings(t *testing.T) {
	g, err := Generate(1500, 6, 44)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{R: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	src := g.LargestComponentVertex()
	serial := g.SerialBFS(src)
	for _, part := range allPartitions {
		for _, wire := range []WireMode{WireSparse, WireAuto, WireHybrid} {
			dg, err := cl.Distribute(g, WithPartition(part))
			if err != nil {
				t.Fatalf("%s: %v", part, err)
			}
			if dg.Partition() != part {
				t.Fatalf("DistGraph reports %s, want %s", dg.Partition(), part)
			}
			res, err := cl.BFS(dg, src, WithWire(wire))
			if err != nil {
				t.Fatalf("%s wire=%v: %v", part, wire, err)
			}
			for v, want := range serial {
				if res.Levels[v] != want {
					t.Fatalf("%s wire=%v: level[%d] = %d, want %d", part, wire, v, res.Levels[v], want)
				}
			}
		}
	}
}

// TestSearchEntryPointsAllPartitionings exercises Search, BiSearch and
// Path on every partitioning.
func TestSearchEntryPointsAllPartitionings(t *testing.T) {
	g, err := Generate(1200, 6, 45)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{R: 2, C: 2})
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
	for _, part := range allPartitions {
		dg, err := cl.Distribute(g, WithPartition(part))
		if err != nil {
			t.Fatal(err)
		}
		uni, err := cl.Search(dg, s, far)
		if err != nil {
			t.Fatalf("%s Search: %v", part, err)
		}
		bi, err := cl.BiSearch(dg, s, far)
		if err != nil {
			t.Fatalf("%s BiSearch: %v", part, err)
		}
		if !uni.Found || uni.Distance != serial[far] {
			t.Fatalf("%s Search distance %d found=%v, want %d", part, uni.Distance, uni.Found, serial[far])
		}
		if !bi.Found || bi.Distance != serial[far] {
			t.Fatalf("%s BiSearch distance %d found=%v, want %d", part, bi.Distance, bi.Found, serial[far])
		}
		path, pres, err := cl.Path(dg, s, far)
		if err != nil {
			t.Fatalf("%s Path: %v", part, err)
		}
		if int32(len(path)-1) != serial[far] || pres.Distance != serial[far] {
			t.Fatalf("%s Path length %d, want %d", part, len(path)-1, serial[far])
		}
	}
}

// TestSSSPAllPartitionings runs Δ-stepping on all three partitionings
// against the serial Dijkstra oracle.
func TestSSSPAllPartitionings(t *testing.T) {
	g, err := GenerateWeighted(1200, 6, 46, WithMaxWeight(64))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{R: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	src := g.LargestComponentVertex()
	want := g.SerialDijkstra(src)
	for _, part := range allPartitions {
		dg, err := cl.Distribute(g, WithPartition(part))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.SSSP(dg, src, WithWire(WireHybrid))
		if err != nil {
			t.Fatalf("%s: %v", part, err)
		}
		for v, d := range res.Dist {
			if d != want[v] {
				t.Fatalf("%s: dist[%d] = %d, serial dijkstra %d", part, v, d, want[v])
			}
		}
	}
}

// TestMultiBFSAllPartitionings validates the batched multi-source
// entry point lane-by-lane against the serial oracle on every
// partitioning.
func TestMultiBFSAllPartitionings(t *testing.T) {
	g, err := Generate(1000, 5, 47)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{R: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	sources := []Vertex{0, 17, g.LargestComponentVertex(), 999}
	for _, part := range allPartitions {
		dg, err := cl.Distribute(g, WithPartition(part))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.MultiBFS(dg, sources, WithWire(WireAuto))
		if err != nil {
			t.Fatalf("%s: %v", part, err)
		}
		if res.B != len(sources) {
			t.Fatalf("%s: %d lanes, want %d", part, res.B, len(sources))
		}
		for lane, src := range sources {
			want := g.SerialBFS(src)
			for v, l := range want {
				if res.LaneLevels[lane][v] != l {
					t.Fatalf("%s lane %d: level[%d] = %d, want %d",
						part, lane, v, res.LaneLevels[lane][v], l)
				}
			}
		}
	}
	dg, _ := cl.Distribute(g)
	if _, err := cl.MultiBFS(dg, nil); err == nil {
		t.Error("empty source batch accepted")
	}
	if _, err := cl.MultiBFS(dg, make([]Vertex, MaxLanes+1)); err == nil {
		t.Error("oversized source batch accepted")
	}
}

// TestDistributeValidation checks the descriptive error when the mesh
// has more ranks than the graph has vertices, on every partitioning.
func TestDistributeValidation(t *testing.T) {
	g, err := FromEdges(4, [][2]Vertex{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{R: 2, C: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range allPartitions {
		_, err := cl.Distribute(g, WithPartition(part))
		if err == nil {
			t.Fatalf("%s: 2x4 mesh over a 4-vertex graph accepted", part)
		}
		for _, want := range []string{"2x4", "4"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", part, err, want)
			}
		}
	}
	if _, err := cl.Distribute(g, WithPartition(Partition(99))); err == nil {
		t.Error("unknown partitioning accepted")
	}
	if got := Partition(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown partition String() = %q", got)
	}
}

// TestSharedOptionsReachBothFamilies checks the unified knobs land in
// both option families while family-specific ones stay put.
func TestSharedOptionsReachBothFamilies(t *testing.T) {
	cfg := newSearchConfig(3)
	cfg.apply([]Option{WithWire(WireHybrid), WithChunkWords(777), WithDelta(9), WithDirection(BottomUp)})
	if cfg.bfs.Wire != WireHybrid || cfg.sssp.Wire != WireHybrid {
		t.Error("WithWire did not reach both families")
	}
	if cfg.bfs.ChunkWords != 777 || cfg.sssp.ChunkWords != 777 {
		t.Error("WithChunkWords did not reach both families")
	}
	if cfg.sssp.Delta != 9 {
		t.Error("WithDelta lost")
	}
	if cfg.bfs.Direction != BottomUp {
		t.Error("WithDirection lost")
	}
}
