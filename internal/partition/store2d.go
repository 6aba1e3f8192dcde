package partition

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/localindex"
)

// Store2D is one rank's storage under the 2D partitioning (§2.2, §2.4).
// Rank (i, j) stores, for each vertex v in its block column j, the
// partial edge list {u : (u,v) in E, block(u) mod R == i}. Only
// non-empty partial lists are indexed (§2.4.1), in CSR form over compact
// columns numbered in ascending vertex id, so a sorted frontier part
// walks Off and Rows forward.
//
// Of the three global→local mappings of §2.4.2 the first (owned
// vertices) is block arithmetic, the second (ColMap: received frontier
// vertex → compact column) is the one hash lookup a search still makes,
// a batch at a time through ResolveColumns, and the third (row vertex →
// sent-neighbors bit, §2.4.3) is resolved when the store is built: every
// entry carries its local row index in RowIdx. The paper's search pays a
// hash probe per scanned neighbor for that third mapping, so the
// simulated clock still charges it: RowProbes holds, per local row, the
// slot inspections a lookup of that vertex takes in the row map the
// loader builds and then drops.
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
	ColIds []graph.Vertex  // compact column index -> global v, strictly ascending
	Off    []int64
	Rows   []graph.Vertex // global u ids
	// RowWts, when non-nil, carries the edge weight parallel to each
	// Rows entry (weight-aware builds only).
	RowWts []uint32

	// RowIdx, parallel to Rows, is each entry's local row: distinct row
	// vertices are numbered [0, RowCount) by first appearance in the
	// edge stream, and the sent-neighbors bitset (§2.4.3) is indexed by
	// that number.
	RowIdx   []uint32
	RowCount int
	// RowProbes[ri] is the number of probes Map.GetCounted takes to find
	// local row ri's vertex in the rank's row map (built in
	// first-appearance order from NewMap(16), as §2.4.2 has it): what a
	// search charges instead of making the lookup. Build2D fails rather
	// than truncate a count.
	RowProbes []uint8

	// FoldEntries[j] counts the Rows entries in block column j (the row
	// vertices processor column j owns): the most pairs one sweep of a
	// lane-parallel search bins for row-group member j, since a sweep
	// scans each arrived vertex's partial list at most once.
	FoldEntries []uint32

	// RowNeed marks, for each owned vertex (by local index), which mesh
	// rows i' hold a non-empty partial edge list for it. The targeted
	// expand sends a frontier vertex only to those rows. Packed
	// ceil(R/64) words per vertex.
	RowNeed    []uint64
	rowNeedWpv int // words per vertex
}

// View returns the harness's view of the store's layout.
func (s *Store2D) View() View { return s.Layout.View() }

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

// ResolveBatch is the most vertices one ResolveColumns call looks up:
// enough for the independent map loads to overlap, small enough for the
// result to live on the caller's stack.
const ResolveBatch = 256

// NoColumn is the compact column ResolveColumns reports for a vertex
// with no partial edge list on this rank.
const NoColumn = ^uint32(0)

// ResolveColumns looks up the compact column of each received vertex of
// part (at most ResolveBatch of them) into cis, NoColumn where this rank
// holds no partial list, and returns the hash probes the lookups made —
// misses included — for the caller to charge. The loop holds nothing but
// the probe, so one lookup's cache miss does not wait for the previous
// vertex's edge list to be scanned.
func (s *Store2D) ResolveColumns(part []uint32, cis *[ResolveBatch]uint32) (probes uint64) {
	for i, gv := range part {
		ci, ok, p := s.ColMap.GetCounted(gv)
		if !ok {
			ci = NoColumn
		}
		cis[i] = ci
		probes += uint64(p)
	}
	return probes
}

// NeedWords returns the ceil(R/64) RowNeed words of the owned vertex
// with local index li: bit i%64 of word i/64 is set when mesh row i has
// a non-empty partial edge list for it.
func (s *Store2D) NeedWords(li uint32) []uint64 {
	w := int(li) * s.rowNeedWpv
	return s.RowNeed[w : w+s.rowNeedWpv]
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

// loader2D is what build2D keeps per rank while it streams the edges:
// the third mapping's hash map, and a dense index over the rank's block
// column and block row standing in for every lookup the loader itself
// would make, so the maps see only their first-appearance Puts. It costs
// (R+C)·4n bytes over all ranks and is dropped when the build returns;
// the centralized loader holds the whole graph anyway.
type loader2D struct {
	// rowMap is the row vertex -> local row map of §2.4.2, built as the
	// search would have built it; only its probe counts outlive the build.
	rowMap *localindex.Map
	// col is indexed by a vertex's position in block column j. Pass 1
	// counts the vertex's entries there; between the passes the count
	// becomes the vertex's compact column.
	col []uint32
	// row is indexed by a vertex's position in block row i (its C blocks
	// laid end to end) and holds its local row + 1, 0 until it appears.
	row []uint32
	// next[ci] is where pass 2 writes column ci's next entry.
	next []int64
}

func build2D(l *Layout2D, visit WeightedVisitor, weighted bool) ([]*Store2D, error) {
	p, bs := l.P(), l.BlockSize()
	colSpan := l.R * bs // vertices in a block column
	stores := make([]*Store2D, p)
	loaders := make([]loader2D, p)
	wpv := (l.R + 63) / 64
	for r := 0; r < p; r++ {
		i, j := l.MeshOf(r)
		lo, hi := l.OwnedRange(r)
		st := &Store2D{
			Layout: l, Rank: r, I: i, J: j, Lo: lo, Hi: hi,
			ColMap:      localindex.NewMap(16),
			FoldEntries: make([]uint32, l.C),
			rowNeedWpv:  wpv,
		}
		st.RowNeed = make([]uint64, st.OwnedCount()*wpv)
		stores[r] = st
		loaders[r] = loader2D{
			rowMap: localindex.NewMap(16),
			col:    make([]uint32, colSpan),
			row:    make([]uint32, l.C*bs),
		}
	}
	// locate returns the rank storing matrix entry (row u, column v),
	// given the blocks bu and bv of the two, the positions of v in that
	// rank's block column and of u in its block row, and u's block column.
	locate := func(u graph.Vertex, bu int, v graph.Vertex, bv int) (rk, colPos, rowPos, ju int) {
		j, ju := bv/l.R, bu/l.R
		return l.RankAt(bu%l.R, j), int(v) - j*colSpan, ju*bs + int(u) - bu*bs, ju
	}
	// Pass 1: discover non-empty columns and distinct rows in stream
	// order (each map sees exactly the Puts a GetOrPut per entry would
	// make), count entries per column, build RowNeed.
	discover := func(u graph.Vertex, bu int, v graph.Vertex, bv int) {
		// u appears in the edge list (matrix column) of v.
		rk, colPos, rowPos, _ := locate(u, bu, v, bv)
		st, ld := stores[rk], &loaders[rk]
		if ld.col[colPos] == 0 {
			st.ColMap.Put(v, 0) // numbered once every column is known
		}
		ld.col[colPos]++
		if ld.row[rowPos] == 0 {
			ld.rowMap.Put(u, uint32(st.RowCount))
			st.RowCount++
			ld.row[rowPos] = uint32(st.RowCount)
		}
		// Tell v's owner that mesh row RowIndexOf(u) has a non-empty
		// partial list for v.
		owner := stores[l.RankAt(bv%l.R, bv/l.R)]
		owner.setNeedsRow(uint32(int(v)-bv*bs), bu%l.R)
	}
	if err := visit(func(u, v graph.Vertex, w uint32) {
		bu, bv := int(u)/bs, int(v)/bs
		discover(u, bu, v, bv)
		discover(v, bv, u, bu)
	}); err != nil {
		return nil, err
	}
	for r, st := range stores {
		ld := &loaders[r]
		// Number the columns in ascending vertex id: a walk over the
		// block column in place of a sort.
		base := graph.Vertex(st.J * colSpan)
		n := st.ColMap.Len()
		st.ColIds = make([]graph.Vertex, 0, n)
		st.Off = make([]int64, 1, n+1)
		for pos, count := range ld.col {
			if count == 0 {
				continue
			}
			ld.col[pos] = uint32(len(st.ColIds))
			st.ColIds = append(st.ColIds, base+graph.Vertex(pos))
			st.Off = append(st.Off, st.Off[len(st.Off)-1]+int64(count))
		}
		st.ColMap.Rewrite(func(v, _ uint32) uint32 { return ld.col[v-uint32(base)] })
		ld.next = append([]int64(nil), st.Off[:n]...)
		st.Rows = make([]graph.Vertex, st.Off[n])
		st.RowIdx = make([]uint32, len(st.Rows))
		if weighted {
			st.RowWts = make([]uint32, len(st.Rows))
		}
		// What a search would have probed for each row, from the map it
		// would have probed, now that the map is complete.
		st.RowProbes = make([]uint8, st.RowCount)
		for pos, ri := range ld.row {
			if ri == 0 {
				continue
			}
			jj := pos / bs // the vertex sits in block i + R*jj, pos%bs in
			u := graph.Vertex((st.I+l.R*jj)*bs + pos - jj*bs)
			var err error
			if st.RowProbes[ri-1], err = probeCount(ld.rowMap, u); err != nil {
				return nil, fmt.Errorf("partition: rank %d row map: %w", r, err)
			}
		}
		ld.rowMap = nil
	}
	// Pass 2: fill rows, their local indices, and their weights when
	// carried; within a column entries keep stream order.
	place := func(u graph.Vertex, bu int, v graph.Vertex, bv int, w uint32) {
		rk, colPos, rowPos, ju := locate(u, bu, v, bv)
		st, ld := stores[rk], &loaders[rk]
		ci := ld.col[colPos]
		k := ld.next[ci]
		ld.next[ci]++
		st.Rows[k] = u
		st.RowIdx[k] = ld.row[rowPos] - 1
		st.FoldEntries[ju]++
		if weighted {
			st.RowWts[k] = w
		}
	}
	if err := visit(func(u, v graph.Vertex, w uint32) {
		bu, bv := int(u)/bs, int(v)/bs
		place(u, bu, v, bv, w)
		place(v, bv, u, bu, w)
	}); err != nil {
		return nil, err
	}
	return stores, nil
}

// probeCount returns the probes m.GetCounted takes to find key. It fails
// if the count does not fit the stores' 8 bits: a lookup that long means
// ids crafted to collide, and a truncated count would silently
// undercharge every search.
func probeCount(m *localindex.Map, key uint32) (uint8, error) {
	_, _, probes := m.GetCounted(key)
	if probes > math.MaxUint8 {
		return 0, fmt.Errorf("looking up vertex %d takes %d probes, more than the %d a probe count holds", key, probes, math.MaxUint8)
	}
	return uint8(probes), nil
}
