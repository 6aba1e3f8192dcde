package harness

import (
	"fmt"
	"strings"
	"testing"
)

// TestAblationDeltaShape asserts the exhibit's headline claim at a
// reduced scale: some interior Δ achieves a strictly lower simulated
// execution time than both degenerate extremes (Δ = min weight,
// Dijkstra-like; Δ = ∞, Bellman-Ford), and the monotone trade behind
// it — re-settles grow with Δ while drained buckets shrink.
func TestAblationDeltaShape(t *testing.T) {
	tbl, err := RunAblationDelta(Config{Scale: 0.4, MaxP: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var dijkstraExec, bellmanExec float64
	bestInterior := -1.0
	var prevResettle, prevBuckets float64 = -1, 1 << 60
	for _, row := range tbl.Rows {
		var buckets, resettles, exec float64
		if _, err := fmt.Sscan(row[1], &buckets); err != nil {
			t.Fatalf("bad buckets cell %q: %v", row[1], err)
		}
		if _, err := fmt.Sscan(row[4], &resettles); err != nil {
			t.Fatalf("bad re-settles cell %q: %v", row[4], err)
		}
		if _, err := fmt.Sscan(row[6], &exec); err != nil {
			t.Fatalf("bad exec cell %q: %v", row[6], err)
		}
		switch {
		case strings.Contains(row[0], "dijkstra-like"):
			dijkstraExec = exec
			if resettles != 0 {
				t.Fatalf("dijkstra-like row re-settled %g vertices", resettles)
			}
		case strings.Contains(row[0], "bellman-ford"):
			bellmanExec = exec
			if buckets != 1 {
				t.Fatalf("bellman-ford row drained %g buckets", buckets)
			}
		case strings.HasPrefix(row[0], "auto"):
			// The auto heuristic is one of the interior points.
			if bestInterior < 0 || exec < bestInterior {
				bestInterior = exec
			}
		default:
			if bestInterior < 0 || exec < bestInterior {
				bestInterior = exec
			}
			// The fixed ladder is increasing in Δ: speculation grows,
			// bucket count shrinks.
			if resettles < prevResettle {
				t.Fatalf("re-settles fell from %g to %g along the Δ ladder", prevResettle, resettles)
			}
			if buckets > prevBuckets {
				t.Fatalf("buckets grew from %g to %g along the Δ ladder", prevBuckets, buckets)
			}
			prevResettle, prevBuckets = resettles, buckets
		}
	}
	if dijkstraExec == 0 || bellmanExec == 0 || bestInterior < 0 {
		t.Fatalf("missing sweep rows: dijkstra %g, bellman %g, interior %g", dijkstraExec, bellmanExec, bestInterior)
	}
	if bestInterior >= dijkstraExec || bestInterior >= bellmanExec {
		t.Fatalf("no interior Δ beat the extremes: interior %g vs dijkstra %g, bellman-ford %g",
			bestInterior, dijkstraExec, bellmanExec)
	}
}
