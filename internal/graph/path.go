package graph

import "fmt"

// PathFromLevels reconstructs one shortest path src→dst from a BFS
// level labeling (as produced by the distributed engines after level
// assembly): starting at dst, repeatedly step to any neighbor exactly
// one level closer to the source. The paper's motivating application
// (§1) is exactly this — the relationship between two entities in a
// semantic graph is read off the shortest path between them.
//
// levels must be a labeling from src over g (levels[src] == 0). The
// returned path is [src, ..., dst] with len = levels[dst]+1. An error
// is returned if dst was not reached or the labeling is inconsistent
// with g.
func PathFromLevels(g *CSR, levels []int32, src, dst Vertex) ([]Vertex, error) {
	if len(levels) != g.N {
		return nil, fmt.Errorf("graph: levels has %d entries for %d vertices", len(levels), g.N)
	}
	if levels[src] != 0 {
		return nil, fmt.Errorf("graph: levels[%d] = %d, not a labeling from that source", src, levels[src])
	}
	if levels[dst] == Unreached {
		return nil, fmt.Errorf("graph: vertex %d not reached from %d", dst, src)
	}
	path := make([]Vertex, levels[dst]+1)
	cur := dst
	for l := levels[dst]; l > 0; l-- {
		path[l] = cur
		found := false
		for _, u := range g.Neighbors(cur) {
			if levels[u] == l-1 {
				cur = u
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("graph: vertex %d at level %d has no parent — inconsistent labeling", cur, l)
		}
	}
	path[0] = cur
	if cur != src {
		return nil, fmt.Errorf("graph: walk ended at %d, not source %d — inconsistent labeling", cur, src)
	}
	return path, nil
}
