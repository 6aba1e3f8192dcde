package partition

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/localindex"
)

// Store1D is one rank's storage under the 1D partitioning: a local CSR
// over its owned vertices with global target ids. The compact mapping
// over all vertices appearing in local edge lists (for the
// sent-neighbors cache, §2.4.3) is resolved when the store is built, as
// in Store2D: every entry carries its target's compact index, and the
// probes a hash lookup of it would take are kept per target for the
// simulated clock to charge. Like Store2D it is immutable once built.
type Store1D struct {
	Layout *Layout1D
	Rank   int
	Lo, Hi graph.Vertex // owned range

	Off []int64        // len OwnedCount+1
	Adj []graph.Vertex // global neighbor ids
	// Wt, when non-nil, carries the edge weight parallel to each Adj
	// entry (weight-aware builds only).
	Wt []uint32

	// AdjIdx, parallel to Adj, is each entry's compact target index:
	// the distinct vertices appearing in local edge lists are numbered
	// [0, TargetCount) by first appearance in Adj, and the
	// sent-neighbors bitset is indexed by that number.
	AdjIdx      []uint32
	TargetCount int
	// TargetProbes[ti] is the number of probes Map.GetCounted takes to
	// find target ti's vertex in the rank's target map (NewMap(len(Adj))
	// filled in Adj order): what a search charges instead of making the
	// lookup. Build1D fails rather than truncate a count.
	TargetProbes []uint8

	// FoldEntries[q] counts the Adj entries whose target rank q owns: the
	// most pairs one sweep of a lane-parallel search bins for q, since a
	// sweep scans each owned vertex's list at most once.
	FoldEntries []uint32
}

// View returns the harness's view of the store's layout.
func (s *Store1D) View() View { return s.Layout.View() }

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
		st := &Store1D{Layout: l, Rank: r, Lo: lo, Hi: hi, FoldEntries: make([]uint32, l.P)}
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
	}
	next := make([][]int64, l.P) // where each owned vertex's next entry goes
	for r, st := range stores {
		next[r] = append([]int64(nil), st.Off[:st.OwnedCount()]...)
	}
	// place files target in the list of v, owned by rank r; q owns target
	// (each edge's two owners are found once, for both of its entries).
	place := func(v graph.Vertex, r int, target graph.Vertex, q int, w uint32) {
		st := stores[r]
		li := st.LocalOf(v)
		k := next[r][li]
		next[r][li]++
		st.Adj[k] = target
		st.FoldEntries[q]++
		if weighted {
			st.Wt[k] = w
		}
	}
	if err := visit(func(u, v graph.Vertex, w uint32) {
		ru, rv := l.OwnerRank(u), l.OwnerRank(v)
		place(u, ru, v, rv, w)
		place(v, rv, u, ru, w)
	}); err != nil {
		return nil, err
	}
	// Number each rank's targets through one dense index over all
	// vertices, handed clean from rank to rank, so the target map sees
	// only its first-appearance Puts and is dropped with the loop body.
	index := make([]uint32, l.N) // compact target + 1, 0 until it appears
	var probes []uint8           // the rank's TargetProbes as they are found
	for r, st := range stores {
		targets := localindex.NewMap(len(st.Adj))
		st.AdjIdx = make([]uint32, len(st.Adj))
		probes = probes[:0]
		for k, t := range st.Adj {
			if index[t] == 0 {
				targets.Put(t, uint32(len(probes)))
				// The map was sized for every entry and never grows, so
				// a later Put only fills an empty slot: the probes that
				// find t now are those that find it in the finished map.
				pc, err := probeCount(targets, t)
				if err != nil {
					return nil, fmt.Errorf("partition: rank %d target map: %w", r, err)
				}
				probes = append(probes, pc)
				index[t] = uint32(len(probes))
			}
			st.AdjIdx[k] = index[t] - 1
		}
		st.TargetCount = len(probes)
		st.TargetProbes = slices.Clone(probes)
		for _, t := range st.Adj {
			index[t] = 0
		}
	}
	return stores, nil
}
