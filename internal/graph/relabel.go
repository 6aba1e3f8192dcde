package graph

import "math/rand"

// Relabel returns a copy of g with vertex ids permuted uniformly at
// random (deterministic in seed), plus the permutation used:
// perm[old] = new. The blocked partitionings of §2 assume vertex ids
// spread load evenly across contiguous blocks — true by construction
// for Poisson random graphs, but not for real inputs whose ids carry
// locality. Relabeling restores the balance assumption.
func Relabel(g *CSR, seed int64) (*CSR, []Vertex) {
	perm := make([]Vertex, g.N)
	for i := range perm {
		perm[i] = Vertex(i)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(g.N, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })

	out := &CSR{N: g.N, Off: make([]int64, g.N+1), Seed: g.Seed, K: g.K}
	for v := 0; v < g.N; v++ {
		out.Off[perm[v]+1] = int64(g.Degree(Vertex(v)))
	}
	for v := 0; v < g.N; v++ {
		out.Off[v+1] += out.Off[v]
	}
	out.Adj = make([]Vertex, len(g.Adj))
	if g.Weighted() {
		out.W = make([]uint32, len(g.W))
	}
	fill := make([]int64, g.N)
	for v := 0; v < g.N; v++ {
		nv := perm[v]
		for i := g.Off[v]; i < g.Off[v+1]; i++ {
			slot := out.Off[nv] + fill[nv]
			out.Adj[slot] = perm[g.Adj[i]]
			if out.W != nil {
				out.W[slot] = g.W[i]
			}
			fill[nv]++
		}
	}
	return out, perm
}
