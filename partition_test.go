package bgl

import (
	"fmt"
	"reflect"
	"slices"
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

// TestPartitionsAreMeshShapes: every partitioning is a shape of the 2D
// mesh run by one engine per family. On a 1 x 6 cluster Part1DCol and
// Part2D are both the 1 x 6 layout, and on a 6 x 1 cluster Part1DRow
// and Part2D are both the 6 x 1 one, so each pair returns the same
// Result — every statistic and simulated second — apart from the host's
// Wall, for every search family under both schedules, two wire codecs
// and two pool sizes, each checked against its serial oracle.
func TestPartitionsAreMeshShapes(t *testing.T) {
	const n = 12000
	g, err := GenerateWeighted(n, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	src := g.LargestComponentVertex()
	serial := g.SerialBFS(src)
	dijkstra := g.SerialDijkstra(src)
	far := src
	for v, l := range serial {
		if l > serial[far] {
			far = Vertex(v)
		}
	}
	lanes := []Vertex{3, 99, 1024, 2047, 11600}
	laneSerial := make([][]int32, len(lanes))
	for i, s := range lanes {
		laneSerial[i] = g.SerialBFS(s)
	}
	levels := func(got []int32, want []int32) error {
		if !slices.Equal(got, want) {
			return fmt.Errorf("levels differ from the serial BFS")
		}
		return nil
	}
	distance := func(res *Result) error {
		if !res.Found || res.Distance != serial[far] {
			return fmt.Errorf("distance %d found=%v, serial %d", res.Distance, res.Found, serial[far])
		}
		return nil
	}
	bfsRun := func(dir Direction) func(*Cluster, *DistGraph, []Option) (any, error) {
		return func(cl *Cluster, dg *DistGraph, o []Option) (any, error) {
			return cl.BFS(dg, src, append(o, WithDirection(dir))...)
		}
	}
	families := []struct {
		name  string
		run   func(cl *Cluster, dg *DistGraph, o []Option) (any, error)
		check func(res any) error
	}{
		{"bfs-topdown", bfsRun(TopDown), func(res any) error { return levels(res.(*Result).Levels, serial) }},
		{"bfs-dirop", bfsRun(DirectionOptimizing), func(res any) error { return levels(res.(*Result).Levels, serial) }},
		{"bfs-bottomup", bfsRun(BottomUp), func(res any) error { return levels(res.(*Result).Levels, serial) }},
		{"search", func(cl *Cluster, dg *DistGraph, o []Option) (any, error) { return cl.Search(dg, src, far, o...) },
			func(res any) error { return distance(res.(*Result)) }},
		{"bisearch", func(cl *Cluster, dg *DistGraph, o []Option) (any, error) { return cl.BiSearch(dg, src, far, o...) },
			func(res any) error { return distance(res.(*Result)) }},
		{"multibfs", func(cl *Cluster, dg *DistGraph, o []Option) (any, error) { return cl.MultiBFS(dg, lanes, o...) },
			func(res any) error {
				for lane, want := range laneSerial {
					if err := levels(res.(*MultiResult).LaneLevels[lane], want); err != nil {
						return fmt.Errorf("lane %d: %v", lane, err)
					}
				}
				return nil
			}},
		{"sssp", func(cl *Cluster, dg *DistGraph, o []Option) (any, error) {
			return cl.SSSP(dg, src, append(o, WithDelta(25))...)
		}, func(res any) error {
			if !slices.Equal(res.(*SSSPResult).Dist, dijkstra) {
				return fmt.Errorf("distances differ from the serial Dijkstra")
			}
			return nil
		}},
	}
	dropWall := func(res any) any {
		switch r := res.(type) {
		case *Result:
			r.Wall = 0
		case *MultiResult:
			r.Wall = 0
		case *SSSPResult:
			r.Wall = 0
		}
		return res
	}
	for _, shape := range []struct {
		r, c int
		part Partition
	}{{1, 6, Part1DCol}, {6, 1, Part1DRow}} {
		cl, err := NewCluster(ClusterConfig{R: shape.r, C: shape.c})
		if err != nil {
			t.Fatal(err)
		}
		dgs := map[Partition]*DistGraph{}
		for _, part := range []Partition{shape.part, Part2D} {
			if dgs[part], err = cl.Distribute(g, WithPartition(part)); err != nil {
				t.Fatal(err)
			}
		}
		for _, fam := range families {
			for _, async := range []bool{true, false} {
				for _, wire := range []WireMode{WireSparse, WireHybrid} {
					for _, workers := range []int{1, 4} {
						name := fmt.Sprintf("%dx%d/%s/async=%v/wire=%v/workers=%d", shape.r, shape.c, fam.name, async, wire, workers)
						t.Run(name, func(t *testing.T) {
							opts := []Option{WithAsync(async), WithWire(wire), WithWorkers(workers)}
							var got [2]any
							for i, part := range []Partition{shape.part, Part2D} {
								res, err := fam.run(cl, dgs[part], opts)
								if err != nil {
									t.Fatalf("%s: %v", part, err)
								}
								if err := fam.check(res); err != nil {
									t.Fatalf("%s: %v", part, err)
								}
								got[i] = dropWall(res)
							}
							if !reflect.DeepEqual(got[0], got[1]) {
								t.Errorf("%s and %s results differ", shape.part, Part2D)
							}
						})
					}
				}
			}
		}
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
