package bgl

import (
	"runtime"
	"testing"
)

// TestStoreFootprint holds what a distributed graph pins on the heap:
// HeapAlloc after a forced collection, with the stores reachable, minus
// the same before Distribute. The stores keep no hash map: the loader
// resolves both maps a search would probe and drops them, leaving one
// word per edge entry, its local row (4 more with a weight), a probe sum
// per partial list, and a compact column and a probe count per
// block-column vertex — 5 bytes a vertex, where the column map cost 8
// bytes a slot at two to four slots per column with a list. A 1 x P
// store, whose columns are its owned vertices, carries no column index
// at all, and row needs are stored by mesh row, R bits a vertex. The
// perf lab's 2D graph costs 10.85 MB where it cost 22.55 MB with a
// column map per rank, 16.04 MB with a probe count per distinct row and
// 64-bit offsets, 15.78 MB with a 64-bit row-need word per vertex and
// 14.91 MB with each entry's global row vertex beside its local row;
// the 16 x 1 mesh, where the dense index is least ahead (each rank's
// block column is every vertex), 21.34 MB where it cost 35.24 MB
// (26.21, 26.11, 25.40); the 1D graph 0.75 MB (1.54, 1.41); a weighted
// 2D graph of 40,000 vertices 6.21 MB (7.91). The ceilings are set 4%
// over the 2D readings and 0.1 MB over the 1D one, which reads up to
// 0.79 MB after the package's other tests; the readings repeat to
// within 0.05 MB, and a retained loader index or a second per-entry
// array lands well above them.
func TestStoreFootprint(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{R: 4, C: 4})
	if err != nil {
		t.Fatal(err)
	}
	heapMB := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / 1e6
	}
	for _, tc := range []struct {
		name     string
		n        int
		part     Partition
		weighted bool
		ceiling  float64 // MB
	}{
		{"bfs2d", 100000, Part2D, false, 11.3},
		{"multibfs1d", 16000, Part1DCol, false, 0.85},
		{"bfs1drow", 100000, Part1DRow, false, 22.2},
		{"sssp2d", 40000, Part2D, true, 6.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			generate := Generate
			if tc.weighted {
				generate = func(n int, k float64, seed int64) (*Graph, error) { return GenerateWeighted(n, k, seed) }
			}
			g, err := generate(tc.n, 10, 9)
			if err != nil {
				t.Fatal(err)
			}
			before := heapMB()
			dg, err := cl.Distribute(g, WithPartition(tc.part))
			if err != nil {
				t.Fatal(err)
			}
			got := heapMB() - before
			runtime.KeepAlive(dg)
			runtime.KeepAlive(g)
			t.Logf("%.2f MB pinned by Distribute (ceiling %.2f)", got, tc.ceiling)
			if got > tc.ceiling {
				t.Errorf("Distribute pins %.2f MB, over the budget of %.2f", got, tc.ceiling)
			}
		})
	}
}
