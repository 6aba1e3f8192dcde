package partition

import (
	"repro/internal/graph"
	"repro/internal/localindex"
)

// Store2D is one rank's storage under the 2D partitioning (§2.2, §2.4).
// Rank (i, j) stores, for each vertex v in its block column j, the
// partial edge list {u : (u,v) in E, block(u) mod R == i}. Only
// non-empty partial lists are indexed (§2.4.1): ColMap compacts the
// O(n/P) expected non-empty columns, RowMap compacts the O(n/P)
// distinct vertices appearing in any local list. These are the second
// and third global→local mappings of §2.4.2 (the first — owned
// vertices — is plain block arithmetic).
//
// A store is immutable once Build2D returns: searches only read it, so
// any number of worlds can run over one set of stores at the same time.
type Store2D struct {
	Layout *Layout2D
	Rank   int
	I, J   int          // mesh coordinates
	Lo, Hi graph.Vertex // owned vertex range

	// Partial edge lists in CSR over compacted non-empty columns.
	ColMap *localindex.Map // global v -> compact column index
	ColIds []graph.Vertex  // compact column index -> global v (ColMap inverse)
	Off    []int64
	Rows   []graph.Vertex // global u ids
	// RowWts, when non-nil, carries the edge weight parallel to each
	// Rows entry (weight-aware builds only).
	RowWts []uint32

	// RowMap indexes every distinct u appearing in Rows, backing the
	// sent-neighbors bitset (§2.4.3).
	RowMap   *localindex.Map
	RowCount int

	// RowNeed marks, for each owned vertex (by local index), which mesh
	// rows i' hold a non-empty partial edge list for it. The targeted
	// expand sends a frontier vertex only to those rows. Packed
	// ceil(R/64) words per vertex.
	RowNeed    []uint64
	rowNeedWpv int // words per vertex
}

// OwnedCount returns the number of owned vertices.
func (s *Store2D) OwnedCount() int { return int(s.Hi - s.Lo) }

// LocalOf converts a global owned vertex id to its local index.
func (s *Store2D) LocalOf(v graph.Vertex) uint32 { return uint32(v - s.Lo) }

// GlobalOf converts a local owned index to the global vertex id.
func (s *Store2D) GlobalOf(i uint32) graph.Vertex { return s.Lo + graph.Vertex(i) }

// PartialList returns the partial edge list stored on this rank for
// global vertex v, or nil if empty.
func (s *Store2D) PartialList(v graph.Vertex) []graph.Vertex {
	idx, ok := s.ColMap.Get(v)
	if !ok {
		return nil
	}
	return s.Rows[s.Off[idx]:s.Off[idx+1]]
}

// PartialWeights returns the weights parallel to PartialList(v), or
// nil when the store is unweighted or holds no list for v.
func (s *Store2D) PartialWeights(v graph.Vertex) []uint32 {
	if s.RowWts == nil {
		return nil
	}
	idx, ok := s.ColMap.Get(v)
	if !ok {
		return nil
	}
	return s.RowWts[s.Off[idx]:s.Off[idx+1]]
}

// NeedsRow reports whether mesh row i has a non-empty partial edge list
// for owned vertex with local index li.
func (s *Store2D) NeedsRow(li uint32, i int) bool {
	w := int(li)*s.rowNeedWpv + i/64
	return s.RowNeed[w]&(1<<(i%64)) != 0
}

func (s *Store2D) setNeedsRow(li uint32, i int) {
	w := int(li)*s.rowNeedWpv + i/64
	s.RowNeed[w] |= 1 << (i % 64)
}

// NonEmptyColumns returns the number of non-empty partial edge lists on
// this rank (the paper's O(n/P) bound, §2.4.1).
func (s *Store2D) NonEmptyColumns() int { return s.ColMap.Len() }

// MemoryStats summarizes one rank's storage footprint, the quantities
// §2.4.1 argues stay O(n/P): owned vertices, indexed non-empty columns,
// distinct row vertices, and raw edge entries. DenseColumns is the
// n/C bound a naive (index-everything) layout would pay.
type MemoryStats struct {
	OwnedVertices   int
	NonEmptyColumns int
	DistinctRows    int
	EdgeEntries     int
	DenseColumns    int
}

// Memory returns this rank's MemoryStats.
func (s *Store2D) Memory() MemoryStats {
	l := s.Layout
	return MemoryStats{
		OwnedVertices:   s.OwnedCount(),
		NonEmptyColumns: s.NonEmptyColumns(),
		DistinctRows:    s.RowCount,
		EdgeEntries:     len(s.Rows),
		DenseColumns:    l.R * l.BlockSize(), // vertices in my block column
	}
}

// Build2D constructs all per-rank 2D stores by streaming the edge
// source twice. See Build1D for the loader-centralization note.
func Build2D(l *Layout2D, visitEdges func(func(u, v graph.Vertex)) error) ([]*Store2D, error) {
	return build2D(l, liftUnweighted(visitEdges), false)
}

// Build2DWeighted is Build2D with per-edge weights: every partial edge
// list entry carries its weight in RowWts, parallel to Rows.
func Build2DWeighted(l *Layout2D, visit WeightedVisitor) ([]*Store2D, error) {
	return build2D(l, visit, true)
}

func build2D(l *Layout2D, visit WeightedVisitor, weighted bool) ([]*Store2D, error) {
	p := l.P()
	stores := make([]*Store2D, p)
	wpv := (l.R + 63) / 64
	for r := 0; r < p; r++ {
		i, j := l.MeshOf(r)
		lo, hi := l.OwnedRange(r)
		st := &Store2D{
			Layout: l, Rank: r, I: i, J: j, Lo: lo, Hi: hi,
			ColMap:     localindex.NewMap(16),
			RowMap:     localindex.NewMap(16),
			rowNeedWpv: wpv,
		}
		st.RowNeed = make([]uint64, st.OwnedCount()*wpv)
		stores[r] = st
	}
	// Pass 1: discover non-empty columns, count entries, build RowMap
	// and RowNeed.
	counts := make([][]int64, p)
	entry := func(u, v graph.Vertex) {
		// u appears in the edge list (matrix column) of v.
		rk := l.StoringRank(u, v)
		st := stores[rk]
		ci := st.ColMap.GetOrPut(v, func() uint32 {
			counts[rk] = append(counts[rk], 0)
			st.ColIds = append(st.ColIds, v)
			return uint32(len(counts[rk]) - 1)
		})
		counts[rk][ci]++
		st.RowMap.GetOrPut(u, func() uint32 {
			st.RowCount++
			return uint32(st.RowCount - 1)
		})
		// Tell v's owner that mesh row RowIndexOf(u) has a non-empty
		// partial list for v.
		owner := stores[l.OwnerRank(v)]
		owner.setNeedsRow(owner.LocalOf(v), l.RowIndexOf(u))
	}
	if err := visit(func(u, v graph.Vertex, w uint32) {
		entry(u, v)
		entry(v, u)
	}); err != nil {
		return nil, err
	}
	fills := make([][]int64, p)
	for r, st := range stores {
		st.Off = make([]int64, len(counts[r])+1)
		for i, c := range counts[r] {
			st.Off[i+1] = st.Off[i] + c
		}
		st.Rows = make([]graph.Vertex, st.Off[len(st.Off)-1])
		if weighted {
			st.RowWts = make([]uint32, len(st.Rows))
		}
		fills[r] = make([]int64, len(counts[r]))
	}
	// Pass 2: fill rows (and their weights when carried).
	place := func(u, v graph.Vertex, w uint32) {
		rk := l.StoringRank(u, v)
		st := stores[rk]
		ci, _ := st.ColMap.Get(v)
		st.Rows[st.Off[ci]+fills[rk][ci]] = u
		if weighted {
			st.RowWts[st.Off[ci]+fills[rk][ci]] = w
		}
		fills[rk][ci]++
	}
	if err := visit(func(u, v graph.Vertex, w uint32) {
		place(u, v, w)
		place(v, u, w)
	}); err != nil {
		return nil, err
	}
	return stores, nil
}
