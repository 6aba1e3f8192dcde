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
// With R = 1 — the conventional 1D partitioning of §2.1 — a rank's block
// column is its owned block and every list is a full edge list. The
// columns are then the owned vertices by local index, empty lists
// included, so the second mapping is an offset: the store carries no
// ColMap, no ColIds and, with no column to expand to, no RowNeed.
//
// A store is immutable once Build2D returns: searches only read it, so
// any number of worlds can run over one set of stores at the same time.
type Store2D struct {
	Layout *Layout2D
	Rank   int
	I, J   int          // mesh coordinates
	Lo, Hi graph.Vertex // owned vertex range

	// Partial edge lists in CSR over compacted non-empty columns (over the
	// owned vertices when R = 1: Off then has OwnedCount+1 entries).
	ColMap *localindex.Map // global v -> compact column index; nil when R = 1
	ColIds []graph.Vertex  // compact column index -> global v, strictly ascending; nil when R = 1
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
	// ceil(R/64) words per vertex; nil when R = 1.
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
// vertex's edge list to be scanned. When R = 1 the received vertices are
// the rank's own and a column is a local index: no probe is made.
func (s *Store2D) ResolveColumns(part []uint32, cis *[ResolveBatch]uint32) (probes uint64) {
	if s.ColMap == nil {
		for i, gv := range part {
			cis[i] = gv - uint32(s.Lo)
		}
		return 0
	}
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

// NonEmptyColumns returns the number of non-empty partial edge lists on
// this rank (the paper's O(n/P) bound, §2.4.1).
func (s *Store2D) NonEmptyColumns() int {
	if s.ColMap != nil {
		return s.ColMap.Len()
	}
	n := 0
	for ci := 1; ci < len(s.Off); ci++ {
		if s.Off[ci] > s.Off[ci-1] {
			n++
		}
	}
	return n
}

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

// Build2D constructs all per-rank stores by streaming the edge source
// twice (discover and count, then fill). The edge source is any function
// that visits every undirected edge exactly once, such as
// graph.Params.VisitEdges or a closure over a materialized CSR.
//
// This centralized loader stands in for the parallel file I/O of the
// original system; graph distribution is not part of any measured
// experiment.
func Build2D(l *Layout2D, visitEdges func(func(u, v graph.Vertex)) error) ([]*Store2D, error) {
	return build2D(l, liftUnweighted(visitEdges), false)
}

// Build2DWeighted is Build2D with per-edge weights: every partial edge
// list entry carries its weight in RowWts, parallel to Rows.
func Build2DWeighted(l *Layout2D, visit WeightedVisitor) ([]*Store2D, error) {
	return build2D(l, visit, true)
}

// end is an edge endpoint and the mesh position (i, j) of its block:
// block b sits at mesh row b mod R of block column b div R.
type end struct {
	v    graph.Vertex
	i, j int
}

func build2D(l *Layout2D, visit WeightedVisitor, weighted bool) ([]*Store2D, error) {
	n, p, bs := l.N, l.P(), l.BlockSize()
	colSpan := l.R * bs // vertices in a block column
	wpv := (l.R + 63) / 64
	stores := make([]*Store2D, p)
	for r := range stores {
		i, j := l.MeshOf(r)
		lo, hi := l.OwnedRange(r)
		st := &Store2D{
			Layout: l, Rank: r, I: i, J: j, Lo: lo, Hi: hi,
			FoldEntries: make([]uint32, l.C),
			rowNeedWpv:  wpv,
		}
		if l.R > 1 {
			st.ColMap = localindex.NewMap(16)
			st.RowNeed = make([]uint64, st.OwnedCount()*wpv)
		}
		stores[r] = st
	}
	// Entry u of the edge list (matrix column) of v is stored on rank
	// (u.i, v.j), and the loader finds it at u.i*n + v in the dense arrays
	// below — its stand-ins for every lookup it would make itself, so the
	// maps see only their first-appearance Puts. They are dropped when the
	// build returns; the centralized loader holds the whole graph anyway.
	//
	// count[u.i*n+v] counts the entries of column v on mesh row u.i; between
	// the passes it becomes the column's compact index on its rank.
	count := make([]uint32, l.R*n)
	// next, indexed like count, is where pass 2 writes the column's next
	// entry.
	next := make([]int64, l.R*n)
	// seq[rk] lists the Rows slots pass 2 filled on rank rk, in stream
	// order: the order in which the third mapping's hash map would have
	// seen the rows.
	seq := make([][]int64, p)
	ends := func(u, v graph.Vertex) (end, end) {
		bu, bv := int(u)/bs, int(v)/bs
		return end{u, bu % l.R, bu / l.R}, end{v, bv % l.R, bv / l.R}
	}
	// Pass 1: discover non-empty columns in stream order (the column maps
	// see exactly the Puts a GetOrPut per entry would make), count entries
	// per column, build RowNeed.
	discover := func(u, v end) {
		pos := u.i*n + int(v.v)
		if l.R > 1 {
			if count[pos] == 0 {
				stores[l.RankAt(u.i, v.j)].ColMap.Put(v.v, 0) // numbered once every column is known
			}
			// Tell v's owner that mesh row u.i has a non-empty partial list
			// for v.
			owner := stores[l.RankAt(v.i, v.j)]
			owner.RowNeed[int(owner.LocalOf(v.v))*wpv+u.i/64] |= 1 << (u.i % 64)
		}
		count[pos]++
	}
	if err := visit(func(u, v graph.Vertex, w uint32) {
		eu, ev := ends(u, v)
		discover(eu, ev)
		discover(ev, eu)
	}); err != nil {
		return nil, err
	}
	for r, st := range stores {
		// The rank's columns: block column J, on mesh row I.
		base := min(st.J*colSpan, n)
		lo, hi := st.I*n+base, st.I*n+min(base+colSpan, n)
		cols, nx := count[lo:hi], next[lo:hi]
		if st.ColMap == nil {
			// R = 1: the block column is the owned block, so column ci is
			// local vertex ci and an empty list keeps its place.
			st.Off = make([]int64, len(cols)+1)
			for li, c := range cols {
				nx[li] = st.Off[li]
				st.Off[li+1] = st.Off[li] + int64(c)
			}
		} else {
			// Number the columns in ascending vertex id: a walk over the
			// block column in place of a sort.
			nc := st.ColMap.Len()
			st.ColIds = make([]graph.Vertex, 0, nc)
			st.Off = make([]int64, 1, nc+1)
			for pos, c := range cols {
				if c == 0 {
					continue
				}
				cols[pos] = uint32(len(st.ColIds))
				nx[pos] = st.Off[len(st.Off)-1]
				st.ColIds = append(st.ColIds, graph.Vertex(base+pos))
				st.Off = append(st.Off, st.Off[len(st.Off)-1]+int64(c))
			}
			st.ColMap.Rewrite(func(v, _ uint32) uint32 { return cols[int(v)-base] })
		}
		st.Rows = make([]graph.Vertex, st.Off[len(st.Off)-1])
		st.RowIdx = make([]uint32, len(st.Rows))
		seq[r] = make([]int64, 0, len(st.Rows))
		if weighted {
			st.RowWts = make([]uint32, len(st.Rows))
		}
	}
	// Pass 2: fill rows, and their weights when carried; within a column
	// entries keep stream order.
	place := func(u, v end, w uint32) {
		rk, pos := l.RankAt(u.i, v.j), u.i*n+int(v.v)
		st := stores[rk]
		k := next[pos]
		next[pos]++
		st.Rows[k] = u.v
		seq[rk] = append(seq[rk], k)
		st.FoldEntries[u.j]++
		if weighted {
			st.RowWts[k] = w
		}
	}
	if err := visit(func(u, v graph.Vertex, w uint32) {
		eu, ev := ends(u, v)
		place(eu, ev, w)
		place(ev, eu, w)
	}); err != nil {
		return nil, err
	}
	// Number each rank's rows by first appearance in the stream, through
	// one dense index over all vertices handed clean from rank to rank,
	// and charge what a search would have probed for each: the row map of
	// §2.4.2 built as the search would have built it — from NewMap(16), a
	// Put per row in first-appearance order — and complete before it is
	// probed. Only the probe counts outlive the build.
	index := make([]uint32, n) // local row + 1, 0 until the row appears
	var order []graph.Vertex
	rowMap := localindex.NewMap(16)
	for r, st := range stores {
		order = order[:0]
		for _, k := range seq[r] {
			u := st.Rows[k]
			if index[u] == 0 {
				order = append(order, u)
				index[u] = uint32(len(order))
			}
			st.RowIdx[k] = index[u] - 1
		}
		rowMap.Reset(16)
		for ri, u := range order {
			rowMap.Put(u, uint32(ri))
		}
		st.RowCount = len(order)
		st.RowProbes = make([]uint8, len(order))
		for ri, u := range order {
			index[u] = 0
			var err error
			if st.RowProbes[ri], err = probeCount(rowMap, u); err != nil {
				return nil, fmt.Errorf("partition: rank %d row map: %w", r, err)
			}
		}
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
