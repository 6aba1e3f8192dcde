package partition

import (
	"repro/internal/graph"
	"repro/internal/localindex"
)

// Store1D is one rank's storage under the 1D partitioning: a local CSR
// over its owned vertices with global target ids, plus the compact
// mapping over all vertices appearing in local edge lists (for the
// sent-neighbors cache, §2.4.3). Like Store2D it is immutable once built.
type Store1D struct {
	Layout *Layout1D
	Rank   int
	Lo, Hi graph.Vertex // owned range

	Off []int64        // len OwnedCount+1
	Adj []graph.Vertex // global neighbor ids
	// Wt, when non-nil, carries the edge weight parallel to each Adj
	// entry (weight-aware builds only).
	Wt []uint32

	// TargetMap maps every distinct vertex appearing in a local edge
	// list to a compact index in [0, TargetCount); nil until built.
	TargetMap   *localindex.Map
	TargetCount int
}

// OwnedCount returns the number of owned vertices.
func (s *Store1D) OwnedCount() int { return int(s.Hi - s.Lo) }

// LocalOf converts a global owned vertex to its local index.
func (s *Store1D) LocalOf(v graph.Vertex) uint32 { return uint32(v - s.Lo) }

// GlobalOf converts a local index to the global vertex id.
func (s *Store1D) GlobalOf(i uint32) graph.Vertex { return s.Lo + graph.Vertex(i) }

// Neighbors returns the edge list of the owned vertex with local index
// i, as global ids.
func (s *Store1D) Neighbors(i uint32) []graph.Vertex { return s.Adj[s.Off[i]:s.Off[i+1]] }

// Weights returns the edge weights parallel to Neighbors(i), or nil
// when the store was built without weights.
func (s *Store1D) Weights(i uint32) []uint32 {
	if s.Wt == nil {
		return nil
	}
	return s.Wt[s.Off[i]:s.Off[i+1]]
}

// WeightedVisitor streams every undirected edge exactly once with its
// weight, such as graph.CSR.VisitWeightedEdges or a WeightSpec overlay
// on graph.Params.VisitEdges.
type WeightedVisitor func(func(u, v graph.Vertex, w uint32)) error

// liftUnweighted adapts an unweighted edge source to the weighted
// visitor shape (weight 1 everywhere).
func liftUnweighted(visitEdges func(func(u, v graph.Vertex)) error) WeightedVisitor {
	return func(fn func(u, v graph.Vertex, w uint32)) error {
		return visitEdges(func(u, v graph.Vertex) { fn(u, v, 1) })
	}
}

// Build1D constructs the per-rank 1D stores by streaming the edge
// source twice (count, then fill). The edge source is any function that
// visits every undirected edge exactly once, such as
// graph.Params.VisitEdges or a closure over a materialized CSR.
//
// This centralized loader stands in for the parallel file I/O of the
// original system; graph distribution is not part of any measured
// experiment.
func Build1D(l *Layout1D, visitEdges func(func(u, v graph.Vertex)) error) ([]*Store1D, error) {
	return build1D(l, liftUnweighted(visitEdges), false)
}

// Build1DWeighted is Build1D with per-edge weights: the stores carry
// a Wt array parallel to Adj, both directions of an edge holding the
// same weight.
func Build1DWeighted(l *Layout1D, visit WeightedVisitor) ([]*Store1D, error) {
	return build1D(l, visit, true)
}

func build1D(l *Layout1D, visit WeightedVisitor, weighted bool) ([]*Store1D, error) {
	stores := make([]*Store1D, l.P)
	for r := 0; r < l.P; r++ {
		lo, hi := l.OwnedRange(r)
		st := &Store1D{Layout: l, Rank: r, Lo: lo, Hi: hi}
		st.Off = make([]int64, st.OwnedCount()+1)
		stores[r] = st
	}
	count := func(v graph.Vertex) {
		st := stores[l.OwnerRank(v)]
		st.Off[st.LocalOf(v)+1]++
	}
	if err := visit(func(u, v graph.Vertex, w uint32) {
		count(u)
		count(v)
	}); err != nil {
		return nil, err
	}
	for _, st := range stores {
		for i := 1; i < len(st.Off); i++ {
			st.Off[i] += st.Off[i-1]
		}
		st.Adj = make([]graph.Vertex, st.Off[len(st.Off)-1])
		if weighted {
			st.Wt = make([]uint32, len(st.Adj))
		}
		st.TargetMap = localindex.NewMap(len(st.Adj))
	}
	fills := make([][]int64, l.P)
	for r, st := range stores {
		fills[r] = make([]int64, st.OwnedCount())
	}
	place := func(v, target graph.Vertex, w uint32) {
		r := l.OwnerRank(v)
		st := stores[r]
		li := st.LocalOf(v)
		st.Adj[st.Off[li]+fills[r][li]] = target
		if weighted {
			st.Wt[st.Off[li]+fills[r][li]] = w
		}
		fills[r][li]++
	}
	if err := visit(func(u, v graph.Vertex, w uint32) {
		place(u, v, w)
		place(v, u, w)
	}); err != nil {
		return nil, err
	}
	for _, st := range stores {
		next := uint32(0)
		gen := func() uint32 { next++; return next - 1 }
		for _, t := range st.Adj {
			st.TargetMap.GetOrPut(t, gen)
		}
		st.TargetCount = int(next)
	}
	return stores, nil
}
