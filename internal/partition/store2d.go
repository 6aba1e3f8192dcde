package partition

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/localindex"
)

// Store2D is one rank's storage under the 2D partitioning (§2.2, §2.4).
// Rank (i, j) stores, for each vertex v in its block column j, the
// partial edge list {u : (u,v) in E, block(u) mod R == i}. Only
// non-empty partial lists are indexed (§2.4.1), in CSR form over compact
// columns numbered in ascending vertex id, so a sorted frontier part
// walks Off and RowIdx forward. An entry is one word, its row vertex's
// local row (RowIdx), from which RowVertex recovers the global id.
//
// Of the three global→local mappings of §2.4.2 the first (owned
// vertices) is block arithmetic, and the other two are resolved when the
// store is built, so a search probes no hash map. The second (received
// frontier vertex → compact column) is a dense array over the block
// column, ColIdx, read a batch at a time through ResolveColumns; the
// third (row vertex → sent-neighbors bit, §2.4.3) is carried by every
// entry as its local row index in RowIdx, a dense number by position. The
// paper's search pays a hash probe for each, so the simulated clock still
// charges them: ColProbes and ListProbes hold the slot inspections the
// lookups take in the column and row maps the loader builds as the
// paper's search would and then drops — per block-column vertex, and
// summed over each partial list. A block column costs 5 bytes a vertex
// this way; a map costs 8 bytes a slot, at two to four slots per column
// with a list, so it would be smaller only where fewer than about one
// vertex in five has a list.
//
// With R = 1 — the conventional 1D partitioning of §2.1 — a rank's block
// column is its owned block and every list is a full edge list. The
// columns are then the owned vertices by local index, empty lists
// included, so the second mapping is an offset: the store carries no
// ColIdx, no ColIds and, with no column to expand to, no RowNeed.
//
// A store is immutable once Build2D returns: searches only read it, so
// any number of worlds can run over one set of stores at the same time.
type Store2D struct {
	Layout *Layout2D
	Rank   int
	I, J   int          // mesh coordinates
	Lo, Hi graph.Vertex // owned vertex range

	// Partial edge lists in CSR over compacted non-empty columns (over the
	// owned vertices when R = 1: Off then has OwnedCount+1 entries). A
	// rank holds fewer than 2^32 entries (ErrTooManyEntries).
	ColIds []graph.Vertex // compact column index -> global v, strictly ascending; nil when R = 1
	Off    []uint32
	// RowWts, when non-nil, carries the edge weight parallel to each
	// RowIdx entry (weight-aware builds only).
	RowWts []uint32

	// ColIdx[v-ColBase], for each vertex v of the block column, is v's
	// compact column, or NoColumn where this rank holds no list for it.
	// ColProbes[v-ColBase] is the number of probes Map.GetCounted takes to
	// look v up, hit or miss, in the rank's column map (built like the row
	// map below). Both are nil when R = 1.
	ColBase   graph.Vertex
	ColIdx    []uint32
	ColProbes []uint8

	// RowIdx is each entry's local row, the bit the sent-neighbors cache
	// (§2.4.3) keeps for it, and the only per-entry row the store holds. A
	// row vertex u is owned by rank (I, m) of this rank's processor row,
	// m = BlockOf(u) / R, and is numbered by position: m·span + u mod
	// BlockSize, where span is BlockSize rounded up to 64. So member m of
	// the fold group has the word-aligned bits [m·span, m·span+BlockSize),
	// in vertex order, and RowCount = C·span bits cover every row.
	RowIdx   []uint32
	RowCount int
	span     uint32
	// DistinctRows is the number of distinct row vertices in RowIdx.
	DistinctRows int
	// ListProbes[ci] sums, over the entries of partial list ci, the
	// probes Map.GetCounted takes to find the entry's row vertex in the
	// rank's row map (built in first-appearance order from NewMap(16), as
	// §2.4.2 has it): what a search that scans the list charges instead
	// of making the lookups. Build2D fails rather than truncate a count.
	ListProbes []uint32

	// RowNeed marks, for each mesh row i' and owned vertex (by local
	// index), whether row i' holds a non-empty partial edge list for it.
	// The targeted expand sends a frontier vertex only to those rows.
	// Stored by row: row i' is a bitmap over the owned range, the
	// ceil(OwnedCount/64) words NeedRow(i') returns, so a row's share of
	// a dense frontier is a word-wise AND and a vertex costs R bits; nil
	// when R = 1.
	RowNeed    []uint64
	rowNeedWpr int // words per row
}

// View returns the harness's view of the store's layout.
func (s *Store2D) View() View { return s.Layout.View() }

// OwnedCount returns the number of owned vertices.
func (s *Store2D) OwnedCount() int { return int(s.Hi - s.Lo) }

// LocalOf converts a global owned vertex id to its local index.
func (s *Store2D) LocalOf(v graph.Vertex) uint32 { return uint32(v - s.Lo) }

// GlobalOf converts a local owned index to the global vertex id.
func (s *Store2D) GlobalOf(i uint32) graph.Vertex { return s.Lo + graph.Vertex(i) }

// RowVertex returns the global row vertex u at local row ri (see RowIdx)
// and the fold-group member m that owns it: m = ri / span, and u sits
// ri − m·span into block m·R + I. The arithmetic wraps in 32 bits and u
// fits them, so u is exact.
func (s *Store2D) RowVertex(ri uint32) (u graph.Vertex, m uint32) {
	m = ri / s.span
	return graph.Vertex((m*uint32(s.Layout.R)+uint32(s.I))*uint32(s.Layout.bs) + ri - m*s.span), m
}

// ResolveBatch is the most vertices one ResolveColumns call looks up:
// enough for the independent index loads to overlap, small enough for the
// result to live on the caller's stack.
const ResolveBatch = 256

// NoColumn is the compact column ResolveColumns reports for a vertex
// with no partial edge list on this rank.
const NoColumn = ^uint32(0)

// ResolveColumns looks up the compact column of each received vertex of
// part (at most ResolveBatch of them) into cis, NoColumn where this rank
// holds no partial list, and returns the hash probes the paper's lookups
// make — misses included — for the caller to charge. The loop holds
// nothing but the two array reads, so one vertex's cache miss does not
// wait for the previous vertex's edge list to be scanned. A vertex
// outside the block column panics. When R = 1 the received vertices are
// the rank's own and a column is a local index: no probe is charged.
func (s *Store2D) ResolveColumns(part []uint32, cis *[ResolveBatch]uint32) (probes uint64) {
	if s.ColIdx == nil {
		for i, gv := range part {
			cis[i] = gv - uint32(s.Lo)
		}
		return 0
	}
	idx, cost, base := s.ColIdx, s.ColProbes[:len(s.ColIdx)], uint32(s.ColBase)
	for i, gv := range part {
		k := gv - base
		cis[i] = idx[k]
		probes += uint64(cost[k])
	}
	return probes
}

// NeedRow returns mesh row i's RowNeed bitmap over the owned range: bit
// li%64 of word li/64 is set when row i has a non-empty partial edge
// list for the owned vertex with local index li.
func (s *Store2D) NeedRow(i int) []uint64 {
	w := i * s.rowNeedWpr
	return s.RowNeed[w : w+s.rowNeedWpr : w+s.rowNeedWpr]
}

// NonEmptyColumns returns the number of non-empty partial edge lists on
// this rank (the paper's O(n/P) bound, §2.4.1).
func (s *Store2D) NonEmptyColumns() int {
	if s.ColIdx != nil {
		return len(s.ColIds)
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
		DistinctRows:    s.DistinctRows,
		EdgeEntries:     len(s.RowIdx),
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
// list entry carries its weight in RowWts, parallel to RowIdx.
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
	colSpan := l.R * bs     // vertices in a block column
	span := (bs + 63) &^ 63 // local rows a fold-group member's block takes
	stores := make([]*Store2D, p)
	for r := range stores {
		i, j := l.MeshOf(r)
		lo, hi := l.OwnedRange(r)
		st := &Store2D{
			Layout: l, Rank: r, I: i, J: j, Lo: lo, Hi: hi,
			RowCount:   l.C * span,
			span:       uint32(span),
			rowNeedWpr: (int(hi-lo) + 63) / 64,
		}
		if l.R > 1 {
			st.RowNeed = make([]uint64, l.R*st.rowNeedWpr)
		}
		stores[r] = st
	}
	// Entry u of the edge list (matrix column) of v is stored on rank
	// (u.i, v.j), and the loader finds it at u.i*n + v in the dense arrays
	// below — its stand-ins for every lookup it would make itself, so the
	// maps see only their first-appearance Puts.
	//
	// count[u.i*n+v] counts the entries of column v on mesh row u.i; between
	// the passes it becomes the column's compact index on its rank, or
	// NoColumn, and so each rank's ColIdx: the ranks' block columns tile it.
	count := make([]uint32, l.R*n)
	// colProbes, tiled the same way, holds the ranks' ColProbes.
	var colProbes []uint8
	if l.R > 1 {
		colProbes = make([]uint8, l.R*n)
	}
	// next, indexed like count, is where pass 2 writes the column's next
	// entry.
	next := make([]uint32, l.R*n)
	// colSeq[rk] lists rank rk's columns in stream order, and seq[rk] the
	// entry slots pass 2 filled on it: the orders in which the second and
	// third mappings' hash maps would have seen their keys.
	colSeq := make([][]graph.Vertex, p)
	seq := make([][]uint32, p)
	ends := func(u, v graph.Vertex) (end, end) {
		bu, bv := int(u)/bs, int(v)/bs
		return end{u, bu % l.R, bu / l.R}, end{v, bv % l.R, bv / l.R}
	}
	// Pass 1: discover non-empty columns in stream order, count entries
	// per column, build RowNeed.
	discover := func(u, v end) {
		pos := u.i*n + int(v.v)
		if l.R > 1 {
			if count[pos] == 0 {
				rk := l.RankAt(u.i, v.j)
				colSeq[rk] = append(colSeq[rk], v.v)
			}
			// Tell v's owner that mesh row u.i has a non-empty partial list
			// for v.
			owner := stores[l.RankAt(v.i, v.j)]
			li := owner.LocalOf(v.v)
			owner.RowNeed[u.i*owner.rowNeedWpr+int(li/64)] |= 1 << (li % 64)
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
	// What a search would have probed is charged from the maps of §2.4.2
	// built as the search would have built them — from NewMap(16), a Put
	// per key in first-appearance order — and complete before any lookup:
	// one map, Reset for each rank's columns and then its rows, each
	// walked once for the probes of its hits, a miss read off its
	// occupancy bitmap. Only the probe counts outlive the build.
	m := localindex.NewMap(16)
	for r, st := range stores {
		// The rank's columns: block column J, on mesh row I.
		base := min(st.J*colSpan, n)
		lo, hi := st.I*n+base, st.I*n+min(base+colSpan, n)
		cols, nx := count[lo:hi], next[lo:hi]
		var entries uint64
		for _, c := range cols {
			entries += uint64(c)
		}
		if err := checkEntries(entries); err != nil {
			return nil, fmt.Errorf("partition: rank %d: %w", r, err)
		}
		if l.R == 1 {
			// R = 1: the block column is the owned block, so column ci is
			// local vertex ci and an empty list keeps its place.
			st.Off = make([]uint32, len(cols)+1)
			for li, c := range cols {
				nx[li] = st.Off[li]
				st.Off[li+1] = st.Off[li] + c
			}
		} else {
			// Number the columns in ascending vertex id: a walk over the
			// block column in place of a sort.
			nc := len(colSeq[r])
			st.ColIds = make([]graph.Vertex, 0, nc)
			st.Off = make([]uint32, 1, nc+1)
			for pos, c := range cols {
				if c == 0 {
					cols[pos] = NoColumn
					continue
				}
				cols[pos] = uint32(len(st.ColIds))
				nx[pos] = st.Off[len(st.Off)-1]
				st.ColIds = append(st.ColIds, graph.Vertex(base+pos))
				st.Off = append(st.Off, st.Off[len(st.Off)-1]+c)
			}
			st.ColBase, st.ColIdx, st.ColProbes = graph.Vertex(base), cols, colProbes[lo:hi]
			m.Reset(16)
			for _, v := range colSeq[r] {
				m.Put(v, uint32(int(v)-base))
			}
			colSeq[r] = nil
			err := chargeLookups(m, st.ColProbes)
			for pos, ci := range cols {
				if ci == NoColumn && err == nil {
					v := uint32(base + pos)
					st.ColProbes[pos], err = probeCount(v, m.MissProbes(v))
				}
			}
			if err != nil {
				return nil, fmt.Errorf("partition: rank %d column map: %w", r, err)
			}
		}
		st.RowIdx = make([]uint32, st.Off[len(st.Off)-1])
		seq[r] = make([]uint32, 0, len(st.RowIdx))
		if weighted {
			st.RowWts = make([]uint32, len(st.RowIdx))
		}
	}
	// Pass 2: fill each entry's local row — u's owner column u.j takes the
	// rows from u.j·span, in block order — and its weight when carried;
	// within a column entries keep stream order.
	place := func(u, v end, w uint32) {
		rk, pos := l.RankAt(u.i, v.j), u.i*n+int(v.v)
		st := stores[rk]
		k := next[pos]
		next[pos]++
		st.RowIdx[k] = uint32(u.j*span + int(u.v) - (u.j*l.R+u.i)*bs)
		seq[rk] = append(seq[rk], k)
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
	// Put each rank's rows in its row map, keyed by the global vertex in
	// first-appearance order, through one dense index over the local rows
	// handed clean from rank to rank, and charge each list the lookups of
	// its entries.
	index := make([]uint32, l.C*span) // first-appearance row + 1, 0 until the row appears
	var order []uint32                // local rows in first-appearance order
	var rowProbes []uint8
	for r, st := range stores {
		order = order[:0]
		for _, k := range seq[r] {
			if ri := st.RowIdx[k]; index[ri] == 0 {
				order = append(order, ri)
				index[ri] = uint32(len(order))
			}
		}
		seq[r] = nil
		m.Reset(16)
		for x, ri := range order {
			u, _ := st.RowVertex(ri)
			m.Put(u, uint32(x))
		}
		rowProbes = slices.Grow(rowProbes[:0], len(order))[:len(order)]
		err := chargeLookups(m, rowProbes)
		st.ListProbes = make([]uint32, len(st.Off)-1)
		for ci := range st.ListProbes {
			var sum uint64
			for _, ri := range st.RowIdx[st.Off[ci]:st.Off[ci+1]] {
				sum += uint64(rowProbes[index[ri]-1])
			}
			if sum > math.MaxUint32 && err == nil {
				err = fmt.Errorf("list %d's lookups take %d probes, more than a list's count holds", ci, sum)
			}
			st.ListProbes[ci] = uint32(sum)
		}
		if err != nil {
			return nil, fmt.Errorf("partition: rank %d row map: %w", r, err)
		}
		for _, ri := range order {
			index[ri] = 0
		}
		st.DistinctRows = len(order)
	}
	return stores, nil
}

// ErrTooManyEntries is Build2D's refusal of a rank whose partial edge
// lists hold 2^32 entries or more, which Off's 32-bit offsets cannot
// address.
var ErrTooManyEntries = errors.New("partition: 2^32 or more edge-list entries on one rank")

// checkEntries refuses a rank of entries edge-list entries that Off
// cannot address.
func checkEntries(entries uint64) error {
	if entries > math.MaxUint32 {
		return fmt.Errorf("%w: %d", ErrTooManyEntries, entries)
	}
	return nil
}

// chargeLookups sets probes[val], for every entry of m, to the probes a
// lookup of its key takes, from one walk of m's table (Map.Probes).
func chargeLookups(m *localindex.Map, probes []uint8) error {
	var err error
	m.Probes(func(key, val uint32, p int) {
		if err == nil {
			probes[val], err = probeCount(key, p)
		}
	})
	return err
}

// probeCount returns probes, the probes a lookup of key takes, as the
// stores' 8 bits. It fails if the count does not fit: a lookup that long
// means ids crafted to collide, and a truncated count would silently
// undercharge every search.
func probeCount(key uint32, probes int) (uint8, error) {
	if probes > math.MaxUint8 {
		return 0, fmt.Errorf("looking up vertex %d takes %d probes, more than the %d a probe count holds", key, probes, math.MaxUint8)
	}
	return uint8(probes), nil
}
