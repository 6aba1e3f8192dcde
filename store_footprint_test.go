package bgl

import (
	"runtime"
	"testing"
)

// TestStoreFootprint holds what a distributed graph pins on the heap:
// HeapAlloc after a forced collection, with the stores reachable, minus
// the same before Distribute. The stores keep no hash map a search does
// not probe — the row and target maps behind the sent-neighbors cache
// are resolved into RowIdx / AdjIdx by the loader and dropped, leaving a
// probe count per row — so the perf lab's 2D graph costs 22.55 MB where
// it cost 26.6 MB with a RowMap per rank, and its 1D graph 1.54 MB where
// it cost 5.0 MB with a TargetMap per rank. The ceilings sit 4% and 10%
// over the readings, which repeat to within 0.05 MB; a retained loader index
// or a second per-entry array lands well above them.
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
		name    string
		n       int
		part    Partition
		ceiling float64 // MB
	}{
		{"bfs2d", 100000, Part2D, 23.5},
		{"multibfs1d", 16000, Part1DCol, 1.7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := Generate(tc.n, 10, 9)
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
			t.Logf("%.2f MB pinned by Distribute (ceiling %.1f)", got, tc.ceiling)
			if got > tc.ceiling {
				t.Errorf("Distribute pins %.2f MB, over the budget of %.1f", got, tc.ceiling)
			}
		})
	}
}
