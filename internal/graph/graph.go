// Package graph provides the Poisson random graphs the paper studies:
// a deterministic G(n,p) generator (skip-sampling, O(m) time), CSR
// adjacency storage, degree statistics, and a serial reference BFS used
// to validate every distributed run.
package graph

import "fmt"

// Vertex is a global vertex id. The paper reaches 3.2 billion vertices;
// this reproduction caps at 2^32, far beyond laptop memory anyway.
type Vertex = uint32

// CSR is an undirected graph in compressed sparse row form. Every
// undirected edge {u,v} appears in both adjacency lists.
type CSR struct {
	N   int      // number of vertices
	Off []int64  // len N+1; adjacency of v is Adj[Off[v]:Off[v+1]]
	Adj []Vertex // concatenated adjacency lists
	// W, when non-nil, carries one positive edge weight per Adj entry
	// (both directions of an undirected edge hold the same value). A
	// nil W means the graph is unweighted; shortest-path code treats
	// every edge as weight 1 then.
	W    []uint32
	Seed int64   // generator seed (0 for hand-built graphs)
	K    float64 // requested average degree (0 for hand-built graphs)
}

// Weighted reports whether the graph carries explicit edge weights.
func (g *CSR) Weighted() bool { return g.W != nil }

// EdgeWeights returns the weights parallel to Neighbors(v), or nil for
// an unweighted graph. The slice aliases the graph's storage.
func (g *CSR) EdgeWeights(v Vertex) []uint32 {
	if g.W == nil {
		return nil
	}
	return g.W[g.Off[v]:g.Off[v+1]]
}

// MaxEdgeWeight returns the largest edge weight (1 for unweighted or
// edgeless graphs).
func (g *CSR) MaxEdgeWeight() uint32 {
	max := uint32(1)
	for _, w := range g.W {
		if w > max {
			max = w
		}
	}
	return max
}

// MinEdgeWeight returns the smallest edge weight (1 for unweighted or
// edgeless graphs).
func (g *CSR) MinEdgeWeight() uint32 {
	if len(g.W) == 0 {
		return 1
	}
	min := g.W[0]
	for _, w := range g.W[1:] {
		if w < min {
			min = w
		}
	}
	return min
}

// NumEdges returns the number of undirected edges.
func (g *CSR) NumEdges() int64 { return int64(len(g.Adj)) / 2 }

// Degree returns the degree of v.
func (g *CSR) Degree(v Vertex) int { return int(g.Off[v+1] - g.Off[v]) }

// Neighbors returns the adjacency list of v. The slice aliases the
// graph's storage and must not be modified.
func (g *CSR) Neighbors(v Vertex) []Vertex { return g.Adj[g.Off[v]:g.Off[v+1]] }

// AvgDegree returns the measured average degree.
func (g *CSR) AvgDegree() float64 {
	if g.N == 0 {
		return 0
	}
	return float64(len(g.Adj)) / float64(g.N)
}

// MaxDegree returns the maximum degree.
func (g *CSR) MaxDegree() int {
	max := 0
	for v := 0; v < g.N; v++ {
		if d := g.Degree(Vertex(v)); d > max {
			max = d
		}
	}
	return max
}

// VisitWeightedEdges streams every undirected edge {u, v}, u < v,
// exactly once with its weight (1 for unweighted graphs) — the edge
// source the weight-aware partition loaders consume.
func (g *CSR) VisitWeightedEdges(fn func(u, v Vertex, w uint32)) error {
	for v := 0; v < g.N; v++ {
		for i := g.Off[v]; i < g.Off[v+1]; i++ {
			if u := g.Adj[i]; Vertex(v) < u {
				fn(Vertex(v), u, g.weightOf(i))
			}
		}
	}
	return nil
}

// FromEdges builds a CSR from an undirected edge list. Self-loops are
// rejected; duplicate edges are kept (the generator never produces
// them).
func FromEdges(n int, edges [][2]Vertex) (*CSR, error) {
	g := &CSR{N: n, Off: make([]int64, n+1)}
	for _, e := range edges {
		if e[0] == e[1] {
			return nil, fmt.Errorf("graph: self-loop at vertex %d", e[0])
		}
		if int(e[0]) >= n || int(e[1]) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for n=%d", e[0], e[1], n)
		}
		g.Off[e[0]+1]++
		g.Off[e[1]+1]++
	}
	for v := 0; v < n; v++ {
		g.Off[v+1] += g.Off[v]
	}
	g.Adj = make([]Vertex, g.Off[n])
	fill := make([]int64, n)
	for _, e := range edges {
		g.Adj[g.Off[e[0]]+fill[e[0]]] = e[1]
		fill[e[0]]++
		g.Adj[g.Off[e[1]]+fill[e[1]]] = e[0]
		fill[e[1]]++
	}
	return g, nil
}

// DegreeHistogram returns counts of vertices per degree, up to the max
// degree.
func (g *CSR) DegreeHistogram() []int {
	hist := make([]int, g.MaxDegree()+1)
	for v := 0; v < g.N; v++ {
		hist[g.Degree(Vertex(v))]++
	}
	return hist
}
