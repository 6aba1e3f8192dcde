package partition

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/localindex"
)

// The stores memoise the two hash maps the search used to probe: the row
// map per scanned neighbor (RowIdx, a row's position in its owner's
// range, and ListProbes, a list's lookups summed) and the column map per
// received vertex (ColIdx/ColProbes over the block column), numbering
// compact columns by vertex id instead of by discovery — or, on a 1 x P
// mesh, by local index with no column index at all. TestMemoIsTheMap
// rebuilds the maps the way the loader used to — getOrPut per entry in
// stream order — and requires the stores to say, entry by entry, vertex
// by vertex and probe by probe, what those maps would have said.

type wedge struct {
	u, v graph.Vertex
	w    uint32
}

type memoCase struct {
	name  string
	n     func(p int) int
	edges func(n int) []wedge
}

func fixedN(n int) func(int) int { return func(int) int { return n } }

// weigh gives every edge a weight that depends on both endpoints.
func weigh(es []wedge) []wedge {
	for i := range es {
		es[i].w = uint32(es[i].u*31+es[i].v*7)%29 + 1
	}
	return es
}

func poissonEdges(k float64) func(n int) []wedge {
	return func(n int) []wedge {
		var es []wedge
		err := graph.Params{N: n, K: k, Seed: 21}.VisitEdges(func(u, v graph.Vertex) {
			es = append(es, wedge{u: u, v: v})
		})
		if err != nil {
			panic(err)
		}
		return weigh(es)
	}
}

func pathEdges(n int) []wedge {
	var es []wedge
	for v := 1; v < n; v++ {
		es = append(es, wedge{u: graph.Vertex(v - 1), v: graph.Vertex(v)})
	}
	return weigh(es)
}

// starEdges puts the hub in the middle of the id range, so its block is
// neither the first nor the last of its block column.
func starEdges(n int) []wedge {
	hub := graph.Vertex(n / 2)
	var es []wedge
	for v := 0; v < n; v++ {
		if graph.Vertex(v) != hub {
			es = append(es, wedge{u: hub, v: graph.Vertex(v)})
		}
	}
	return weigh(es)
}

func twoComponentEdges(n int) []wedge {
	es := pathEdges(n / 2)
	for v := n/2 + 1; v < n; v++ {
		es = append(es, wedge{u: graph.Vertex(n / 2), v: graph.Vertex(v)})
	}
	return weigh(es)
}

func dupSelfEdges(n int) []wedge {
	es := poissonEdges(4)(n)
	for i := 0; i < len(es); i += 3 {
		es = append(es, es[i]) // the same edge again, later in the stream
	}
	for v := 0; v < n; v += 5 {
		es = append(es, wedge{u: graph.Vertex(v), v: graph.Vertex(v)})
	}
	return weigh(es)
}

// lastOwnerEdges strings a path through the vertices of every fourth
// block of 38 (the 4x4 block size at n = 600) and leaves the rest
// isolated, so whole vertex blocks — the first and middle owners of a
// block column — have no column on any rank.
func lastOwnerEdges(n int) []wedge {
	var es []wedge
	prev := -1
	for v := 0; v < n; v++ {
		if v/38%4 != 3 {
			continue
		}
		if prev >= 0 {
			es = append(es, wedge{u: graph.Vertex(prev), v: graph.Vertex(v)})
		}
		prev = v
	}
	return weigh(es)
}

var memoCases = []memoCase{
	// n = 5500 makes a 4x4 rank's row map (capacity 4096, key blocks
	// 1375 ids apart) and, at k = 3, a 1x16 rank's row map collide, so
	// probe counts above 1 are in play; a denser key set never collides
	// (the hash is a bijection on an id's low bits).
	{"poisson", fixedN(5500), poissonEdges(10)},
	{"poisson-sparse", fixedN(5500), poissonEdges(3)},
	{"star", fixedN(600), starEdges},
	{"long-path", fixedN(3000), pathEdges},
	{"two-components", fixedN(700), twoComponentEdges},
	{"dup-and-self-edges", fixedN(300), dupSelfEdges},
	{"last-owner-only", fixedN(600), lastOwnerEdges},
	{"n=P+1", func(p int) int { return p + 1 }, pathEdges},
	// Block size 1: each block is one vertex, so a member's rows are one
	// bit of its span.
	{"n=P", func(p int) int { return p }, pathEdges},
	// The last block holds one vertex of the block size 2.
	{"n=2P-1", func(p int) int { return 2*p - 1 }, pathEdges},
}

func visitor(es []wedge) WeightedVisitor {
	return func(fn func(u, v graph.Vertex, w uint32)) error {
		for _, e := range es {
			fn(e.u, e.v, e.w)
		}
		return nil
	}
}

func plainVisitor(es []wedge) func(func(u, v graph.Vertex)) error {
	return func(fn func(u, v graph.Vertex)) error {
		for _, e := range es {
			fn(e.u, e.v)
		}
		return nil
	}
}

// getOrPut returns m's value for key, or inserts next() and returns it:
// how the loader used to number a map's keys while streaming edges.
func getOrPut(m *localindex.Map, key uint32, next func() uint32) uint32 {
	if v, ok := m.Get(key); ok {
		return v
	}
	v := next()
	m.Put(key, v)
	return v
}

// counter numbers keys by first appearance, as getOrPut's next callback.
func counter() func() uint32 {
	next := uint32(0)
	return func() uint32 { next++; return next - 1 }
}

func TestMemoIsTheMap(t *testing.T) {
	for _, mesh := range [][2]int{{4, 4}, {3, 2}, {1, 4}, {1, 16}, {4, 1}} {
		for _, tc := range memoCases {
			for _, weighted := range []bool{false, true} {
				name := fmt.Sprintf("%dx%d/%s/weighted=%v", mesh[0], mesh[1], tc.name, weighted)
				t.Run(name, func(t *testing.T) {
					n := tc.n(mesh[0] * mesh[1])
					checkMemo2D(t, n, mesh[0], mesh[1], tc.edges(n), weighted)
				})
			}
		}
	}
	// No engine sends a vertex to a rank outside its block column; one
	// that did would read another column's answer, so the lookup panics.
	t.Run("outside-block-column", func(t *testing.T) {
		l, _ := NewLayout2D(600, 4, 4)
		stores, err := Build2D(l, plainVisitor(poissonEdges(4)(600)))
		if err != nil {
			t.Fatal(err)
		}
		st := stores[l.RankAt(1, 1)]
		end := st.ColBase + graph.Vertex(len(st.ColIdx))
		for _, v := range []graph.Vertex{st.ColBase - 1, end, 599} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("ResolveColumns(%d) outside the block column [%d, %d) did not panic", v, st.ColBase, end)
					}
				}()
				var cis [ResolveBatch]uint32
				st.ResolveColumns([]uint32{uint32(st.ColBase), uint32(v)}, &cis)
			}()
		}
	})
}

func checkMemo2D(t *testing.T, n, r, c int, es []wedge, weighted bool) {
	l, err := NewLayout2D(n, r, c)
	if err != nil {
		t.Fatal(err)
	}
	var stores []*Store2D
	if weighted {
		stores, err = Build2DWeighted(l, visitor(es))
	} else {
		stores, err = Build2D(l, plainVisitor(es))
	}
	if err != nil {
		t.Fatal(err)
	}

	// The reference: the loader as it was. Two maps per rank filled by
	// getOrPut per entry in stream order, RowNeed set per entry (row i's
	// bitmap over the owner's range, ceil(owned/64) words a row), each
	// column's entries kept in stream order.
	type entry struct {
		u graph.Vertex
		w uint32
	}
	p := l.P()
	wpr := func(rk int) int { return (l.OwnedCount(rk) + 63) / 64 }
	colMaps, rowMaps := make([]*localindex.Map, p), make([]*localindex.Map, p)
	nextCol, nextRow := make([]func() uint32, p), make([]func() uint32, p)
	need := make([][]uint64, p)
	lists := make([]map[graph.Vertex][]entry, p)
	fold := make([][]uint32, p)
	for rk := 0; rk < p; rk++ {
		colMaps[rk], rowMaps[rk] = localindex.NewMap(16), localindex.NewMap(16)
		nextCol[rk], nextRow[rk] = counter(), counter()
		need[rk] = make([]uint64, r*wpr(rk))
		lists[rk] = map[graph.Vertex][]entry{}
		fold[rk] = make([]uint32, c)
	}
	ref := func(u, v graph.Vertex, w uint32) {
		rk := l.StoringRank(u, v)
		getOrPut(colMaps[rk], v, nextCol[rk])
		getOrPut(rowMaps[rk], u, nextRow[rk])
		lists[rk][v] = append(lists[rk][v], entry{u, w})
		fold[rk][l.BlockOf(u)/l.R]++
		owner := l.OwnerRank(v)
		lo, _ := l.OwnedRange(owner)
		i, li := l.RowIndexOf(u), int(v-lo)
		need[owner][i*wpr(owner)+li/64] |= 1 << (li % 64)
	}
	for _, e := range es {
		ref(e.u, e.v, e.w)
		ref(e.v, e.u, e.w)
	}

	for rk, st := range stores {
		if weighted != (st.RowWts != nil) {
			t.Fatalf("rank %d: weighted=%v but RowWts nil=%v", rk, weighted, st.RowWts == nil)
		}
		// A row's bit is its position in the owned range of its owner,
		// fold-group member m, whose rows take span bits from m·span, and
		// RowVertex reads the row vertex and m back off it.
		span := (l.BlockSize() + 63) / 64 * 64
		if st.RowCount != c*span || st.DistinctRows != rowMaps[rk].Len() || len(st.ListProbes) != len(st.Off)-1 {
			t.Fatalf("rank %d: RowCount %d (C·span %d), DistinctRows %d (reference map holds %d), %d ListProbes for %d lists",
				rk, st.RowCount, c*span, st.DistinctRows, rowMaps[rk].Len(), len(st.ListProbes), len(st.Off)-1)
		}
		for k, ri := range st.RowIdx {
			m, off := int(ri)/span, int(ri)%span
			lo, hi := l.OwnedRange(l.RankAt(st.I, m))
			u, um := st.RowVertex(ri)
			if m >= c || off >= int(hi-lo) || lo+graph.Vertex(off) != u || int(um) != m {
				t.Fatalf("rank %d entry %d: RowIdx %d decodes to member %d offset %d, but RowVertex says vertex %d of member %d", rk, k, ri, m, off, u, um)
			}
		}
		for ci, got := range st.ListProbes {
			want := 0
			for _, ri := range st.RowIdx[st.Off[ci]:st.Off[ci+1]] {
				u, _ := st.RowVertex(ri)
				_, ok, probes := rowMaps[rk].GetCounted(u)
				if !ok {
					t.Fatalf("rank %d list %d: row vertex %d is not in the reference row map", rk, ci, u)
				}
				want += probes
			}
			if int(got) != want {
				t.Fatalf("rank %d list %d: ListProbes %d, reference lookups take %d", rk, ci, got, want)
			}
		}

		if !slices.Equal(st.FoldEntries, fold[rk]) {
			t.Fatalf("rank %d: FoldEntries %v, entries per block column %v", rk, st.FoldEntries, fold[rk])
		}
		if st.NonEmptyColumns() != colMaps[rk].Len() {
			t.Fatalf("rank %d: %d non-empty columns, reference %d", rk, st.NonEmptyColumns(), colMaps[rk].Len())
		}
		// Each column's entries keep stream order.
		checkColumn := func(ci int, v graph.Vertex) {
			want := lists[rk][v]
			if int(st.Off[ci+1]-st.Off[ci]) != len(want) {
				t.Fatalf("rank %d column %d: %d entries, stream has %d", rk, v, st.Off[ci+1]-st.Off[ci], len(want))
			}
			for x, e := range want {
				k := st.Off[ci] + uint32(x)
				if u, _ := st.RowVertex(st.RowIdx[k]); u != e.u || (weighted && st.RowWts[k] != e.w) {
					t.Fatalf("rank %d column %d entry %d: row %d, want (%d, w=%d) in stream order", rk, v, x, u, e.u, e.w)
				}
			}
		}
		if r == 1 {
			// The block column is the owned block: column li is owned
			// vertex li, empty or not, resolved with no probe.
			if st.ColIdx != nil || st.ColProbes != nil || st.ColIds != nil || st.RowNeed != nil || len(st.Off) != st.OwnedCount()+1 {
				t.Fatalf("rank %d: R = 1 store carries %d ColIdx, %d ColProbes, %d ColIds, %d RowNeed words, %d Off for %d owned",
					rk, len(st.ColIdx), len(st.ColProbes), len(st.ColIds), len(st.RowNeed), len(st.Off), st.OwnedCount())
			}
			var cis [ResolveBatch]uint32
			for lo := st.Lo; lo < st.Hi; lo += ResolveBatch {
				part := make([]uint32, 0, ResolveBatch)
				for v := lo; v < min(lo+ResolveBatch, st.Hi); v++ {
					part = append(part, uint32(v))
				}
				if probes := st.ResolveColumns(part, &cis); probes != 0 {
					t.Fatalf("rank %d: resolving owned vertices took %d probes", rk, probes)
				}
				for x, v := range part {
					if cis[x] != v-uint32(st.Lo) {
						t.Fatalf("rank %d: ResolveColumns(%d) = %d, want local index %d", rk, v, cis[x], v-uint32(st.Lo))
					}
					checkColumn(int(cis[x]), graph.Vertex(v))
				}
			}
			continue
		}
		if len(st.ColIds) != colMaps[rk].Len() || len(st.Off) != len(st.ColIds)+1 {
			t.Fatalf("rank %d: %d ColIds, %d Off, reference map holds %d", rk, len(st.ColIds), len(st.Off), colMaps[rk].Len())
		}
		for ci, v := range st.ColIds {
			if ci > 0 && st.ColIds[ci-1] >= v {
				t.Fatalf("rank %d: ColIds[%d]=%d does not ascend past ColIds[%d]=%d", rk, ci, v, ci-1, st.ColIds[ci-1])
			}
			checkColumn(ci, v)
		}
		// The block column is the rank's mesh column's vertices.
		base := min(st.J*r*l.BlockSize(), n)
		if int(st.ColBase) != base || len(st.ColIdx) != min(base+r*l.BlockSize(), n)-base || len(st.ColProbes) != len(st.ColIdx) {
			t.Fatalf("rank %d: ColIdx covers %d vertices from %d (%d ColProbes), block column %d from %d",
				rk, len(st.ColIdx), st.ColBase, len(st.ColProbes), min(base+r*l.BlockSize(), n)-base, base)
		}
		// Every lookup a search can make — hit or miss, any vertex of the
		// block column — costs what it costs in the map the loader used to
		// build, and names the column whose id it is, one at a time or a
		// batch at a time.
		var cis [ResolveBatch]uint32
		for lo := base; lo < base+len(st.ColIdx); lo += ResolveBatch {
			part := make([]uint32, 0, ResolveBatch)
			for v := lo; v < min(lo+ResolveBatch, base+len(st.ColIdx)); v++ {
				part = append(part, uint32(v))
			}
			batch := st.ResolveColumns(part, &cis)
			for x, v := range part {
				_, ok, want := colMaps[rk].GetCounted(v)
				ci, probes := st.ColIdx[int(v)-base], int(st.ColProbes[int(v)-base])
				if (ci != NoColumn) != ok || probes != want {
					t.Fatalf("rank %d: vertex %d: column %d in %d probes, reference present=%v in %d", rk, v, ci, probes, ok, want)
				}
				if ok && st.ColIds[ci] != graph.Vertex(v) {
					t.Fatalf("rank %d: vertex %d resolves to column %d, which is vertex %d", rk, v, ci, st.ColIds[ci])
				}
				var one [ResolveBatch]uint32
				if p := st.ResolveColumns([]uint32{v}, &one); one[0] != ci || int(p) != probes {
					t.Fatalf("rank %d: ResolveColumns(%d) alone = %d in %d probes, want %d in %d", rk, v, one[0], p, ci, probes)
				}
				if cis[x] != ci {
					t.Fatalf("rank %d: ResolveColumns(%d) in a batch = %d, want %d", rk, v, cis[x], ci)
				}
				batch -= uint64(probes)
			}
			if batch != 0 {
				t.Fatalf("rank %d: ResolveColumns probe total off by %d", rk, int64(batch))
			}
		}
		if !slices.Equal(st.RowNeed, need[rk]) {
			t.Fatalf("rank %d: RowNeed differs from the per-entry reference", rk)
		}
		for i, w := 0, wpr(rk); i < r; i++ {
			if row := st.NeedRow(i); len(row) != w || cap(row) != w || !slices.Equal(row, need[rk][i*w:(i+1)*w]) {
				t.Fatalf("rank %d row %d: NeedRow (%d words, cap %d) differs from the reference (%d words)", rk, i, len(row), cap(row), w)
			}
		}
	}
}

// TestMemoSeesCollisions guards the cases above against going soft: if
// no lookup in them ever took a second probe, equal probe counts would
// prove nothing. A column map never collides where it has at least as
// many slots as the block column has vertices (the hash is a bijection
// on an id's low bits), so column collisions need a sparse block column:
// on the long path a rank holds lists for one block of the four. A row
// lookup took a second probe where a list's probes outnumber its
// entries.
func TestMemoSeesCollisions(t *testing.T) {
	deepRows := func(stores []*Store2D) int {
		n := 0
		for _, st := range stores {
			for ci, p := range st.ListProbes {
				if p > st.Off[ci+1]-st.Off[ci] {
					n++
				}
			}
		}
		return n
	}
	l2, _ := NewLayout2D(5500, 4, 4)
	st2, err := Build2D(l2, plainVisitor(poissonEdges(10)(5500)))
	if err != nil {
		t.Fatal(err)
	}
	if deepRows(st2) == 0 {
		t.Error("no 2D row lookup takes more than one probe")
	}
	lp, _ := NewLayout2D(3000, 4, 4)
	stp, err := Build2D(lp, plainVisitor(pathEdges(3000)))
	if err != nil {
		t.Fatal(err)
	}
	deepCols := 0
	for _, st := range stp {
		for _, p := range st.ColProbes {
			if p > 1 {
				deepCols++
			}
		}
	}
	if deepCols == 0 {
		t.Error("no 2D column lookup, hit or miss, takes more than one probe")
	}
	l1, _ := NewLayout2D(5500, 1, 16)
	st1, err := Build2D(l1, plainVisitor(poissonEdges(3)(5500)))
	if err != nil {
		t.Fatal(err)
	}
	if deepRows(st1) == 0 {
		t.Error("no 1x16 row lookup takes more than one probe")
	}
}

// TestProbeCountRefusesToTruncate: ids crafted to share one slot make a
// lookup longer than a count holds; the build must fail, not undercharge.
func TestProbeCountRefusesToTruncate(t *testing.T) {
	const keys = 300
	m := localindex.NewMap(keys) // capacity 1024: ids 1024 apart collide
	for i := uint32(0); i < keys; i++ {
		m.Put(i<<10, i)
	}
	hits := map[uint32]int{}
	m.Probes(func(k, _ uint32, p int) { hits[k] = p })
	if got, err := probeCount(254<<10, hits[254<<10]); err != nil || got != 255 {
		t.Fatalf("the 255-probe lookup: count %d, %v", got, err)
	}
	if _, err := probeCount(255<<10, hits[255<<10]); err == nil {
		t.Fatal("a 256-probe lookup was squeezed into 8 bits")
	}
	if _, err := probeCount(keys<<10, m.MissProbes(keys<<10)); err == nil {
		t.Fatal("a 301-probe miss was squeezed into 8 bits")
	}
}

// TestEntryGuardRefuses2To32: Off's 32-bit offsets address at most
// 2^32 − 1 entries on a rank; one more must fail the build by name, not
// wrap.
func TestEntryGuardRefuses2To32(t *testing.T) {
	if err := checkEntries(1<<32 - 1); err != nil {
		t.Fatalf("2^32 − 1 entries refused: %v", err)
	}
	for _, n := range []uint64{1 << 32, 1<<32 + 1, 1 << 40} {
		if err := checkEntries(n); !errors.Is(err, ErrTooManyEntries) {
			t.Errorf("%d entries: err = %v, want ErrTooManyEntries", n, err)
		}
	}
}
