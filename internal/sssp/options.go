// Package sssp implements distributed single-source shortest paths by
// Δ-stepping (Meyer & Sanders) over the same 1D and 2D partitionings,
// simulated torus collectives, and frontier machinery as the BFS
// engines.
//
// Tentative distances live with their owners; each epoch relaxes the
// edges out of a globally-agreed active set and ships the resulting
// relax requests (vertex, tentative distance) to the owners through
// the personalized exchanges the BFS fold uses, with the vertex sets
// compressed by the frontier wire codec. The bucket array reuses the
// frontier representations: each bucket is an adaptive sparse-queue /
// dense-bitmap set over the owned range.
//
// Δ-stepping's two degenerate extremes are first-class and tested:
// Δ = ∞ collapses to frontier Bellman-Ford (one bucket, light phases
// only) and Δ ≤ min edge weight settles buckets Dijkstra-like (no
// vertex is ever re-relaxed within a bucket).
package sssp

import (
	"repro/internal/graph"
	"repro/internal/search"
)

// DeltaInf selects a single bucket: every edge is light and the run
// degenerates to frontier Bellman-Ford.
const DeltaInf = ^uint32(0)

// Options configures a distributed Δ-stepping run.
type Options struct {
	Source graph.Vertex
	// Delta is the bucket width. 0 selects the standard heuristic
	// Δ = max(1, maxWeight/avgDegree) (computed from the distributed
	// stores with two reductions); DeltaInf selects the Bellman-Ford
	// degenerate.
	Delta uint32
	// Common carries the knobs shared with every other search
	// algorithm: Wire selects the encoding of the relax-request vertex
	// sets (the same codec family the BFS payloads use), ChunkWords the
	// fixed message buffers.
	search.Common
}

// DefaultOptions returns the production configuration: auto Δ, raw
// vertex lists, and the paper's fixed 16Ki-word message buffers.
func DefaultOptions(source graph.Vertex) Options {
	return Options{Source: source, Common: search.Defaults()}
}

// bucketOf maps a tentative distance to its bucket index.
func bucketOf(d, delta uint32) uint32 {
	if delta == DeltaInf {
		return 0
	}
	return d / delta
}
