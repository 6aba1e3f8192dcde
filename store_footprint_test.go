package bgl

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
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
// 2D graph of 40,000 vertices 6.21 MB (7.91). Each case runs in a fresh
// process — the test binary re-executed for that one case — so no other
// test's leftovers count: the 1D case read 0.79 MB after the package's
// other tests in this process and 0.75 MB alone. The ceilings are set
// 4% over the readings; the readings repeat to within 0.05 MB, and a
// retained loader index or a second per-entry array lands well above
// them.
func TestStoreFootprint(t *testing.T) {
	cases := []struct {
		name     string
		n        int
		part     Partition
		weighted bool
		ceiling  float64 // MB
	}{
		{"bfs2d", 100000, Part2D, false, 11.3},
		{"multibfs1d", 16000, Part1DCol, false, 0.78},
		{"bfs1drow", 100000, Part1DRow, false, 22.2},
		{"sssp2d", 40000, Part2D, true, 6.5},
	}
	only := os.Getenv(footprintCaseEnv)
	for _, tc := range cases {
		if only != "" && only != tc.name {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			if only == "" {
				// Re-execute the test binary for this case alone.
				cmd := exec.Command(os.Args[0], "-test.run=^TestStoreFootprint$/^"+tc.name+"$", "-test.v", "-test.count=1")
				cmd.Env = append(os.Environ(), footprintCaseEnv+"="+tc.name)
				out, err := cmd.CombinedOutput()
				for _, line := range strings.Split(string(out), "\n") {
					if strings.Contains(line, "pinned by Distribute") || strings.Contains(line, "over the budget") {
						t.Log(strings.TrimSpace(line))
					}
				}
				if err != nil {
					t.Fatalf("the case's own process failed: %v\n%s", err, out)
				}
				return
			}
			measureFootprint(t, tc.n, tc.part, tc.weighted, tc.ceiling)
		})
	}
}

// footprintCaseEnv names the one TestStoreFootprint case a re-executed
// test binary measures.
const footprintCaseEnv = "BGL_STORE_FOOTPRINT_CASE"

// measureFootprint distributes a generated n-vertex graph under part and
// fails if it pins more than ceiling MB.
func measureFootprint(t *testing.T, n int, part Partition, weighted bool, ceiling float64) {
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
	generate := Generate
	if weighted {
		generate = func(n int, k float64, seed int64) (*Graph, error) { return GenerateWeighted(n, k, seed) }
	}
	g, err := generate(n, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	before := heapMB()
	dg, err := cl.Distribute(g, WithPartition(part))
	if err != nil {
		t.Fatal(err)
	}
	got := heapMB() - before
	runtime.KeepAlive(dg)
	runtime.KeepAlive(g)
	t.Logf("%.2f MB pinned by Distribute (ceiling %.2f)", got, ceiling)
	if got > ceiling {
		t.Errorf("Distribute pins %.2f MB, over the budget of %.2f", got, ceiling)
	}
}
