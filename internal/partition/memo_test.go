package partition

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/localindex"
)

// The stores memoise the row hash map the search used to probe per
// scanned neighbor (RowIdx/RowProbes) and number compact columns by
// vertex id instead of by discovery — or, on a 1 x P mesh, by local
// index with no column map at all. TestMemoIsTheMap rebuilds the maps the
// way the loader used to — GetOrPut per entry in stream order — and
// requires the stores to say, entry by entry and probe by probe, what
// those maps would have said.

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

// counter numbers keys by first appearance, as GetOrPut's next callback.
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
	// GetOrPut per entry in stream order, RowNeed set per entry, each
	// column's entries kept in stream order.
	type entry struct {
		u graph.Vertex
		w uint32
	}
	p := l.P()
	wpv := (r + 63) / 64
	colMaps, rowMaps := make([]*localindex.Map, p), make([]*localindex.Map, p)
	nextCol, nextRow := make([]func() uint32, p), make([]func() uint32, p)
	need := make([][]uint64, p)
	lists := make([]map[graph.Vertex][]entry, p)
	fold := make([][]uint32, p)
	for rk := 0; rk < p; rk++ {
		colMaps[rk], rowMaps[rk] = localindex.NewMap(16), localindex.NewMap(16)
		nextCol[rk], nextRow[rk] = counter(), counter()
		need[rk] = make([]uint64, l.OwnedCount(rk)*wpv)
		lists[rk] = map[graph.Vertex][]entry{}
		fold[rk] = make([]uint32, c)
	}
	ref := func(u, v graph.Vertex, w uint32) {
		rk := l.StoringRank(u, v)
		colMaps[rk].GetOrPut(v, nextCol[rk])
		rowMaps[rk].GetOrPut(u, nextRow[rk])
		lists[rk][v] = append(lists[rk][v], entry{u, w})
		fold[rk][l.ColBlockOf(u)]++
		owner := l.OwnerRank(v)
		lo, _ := l.OwnedRange(owner)
		i := l.RowIndexOf(u)
		need[owner][int(v-lo)*wpv+i/64] |= 1 << (i % 64)
	}
	for _, e := range es {
		ref(e.u, e.v, e.w)
		ref(e.v, e.u, e.w)
	}

	for rk, st := range stores {
		if weighted != (st.RowWts != nil) {
			t.Fatalf("rank %d: weighted=%v but RowWts nil=%v", rk, weighted, st.RowWts == nil)
		}
		if len(st.RowIdx) != len(st.Rows) {
			t.Fatalf("rank %d: %d RowIdx entries for %d Rows", rk, len(st.RowIdx), len(st.Rows))
		}
		if st.RowCount != rowMaps[rk].Len() || len(st.RowProbes) != st.RowCount {
			t.Fatalf("rank %d: RowCount %d, %d RowProbes, reference map holds %d", rk, st.RowCount, len(st.RowProbes), rowMaps[rk].Len())
		}
		for k, u := range st.Rows {
			idx, ok, probes := rowMaps[rk].GetCounted(u)
			if !ok || st.RowIdx[k] != idx {
				t.Fatalf("rank %d entry %d: RowIdx %d, reference row map says %d (present=%v)", rk, k, st.RowIdx[k], idx, ok)
			}
			if int(st.RowProbes[idx]) != probes {
				t.Fatalf("rank %d row %d (vertex %d): RowProbes %d, reference lookup takes %d", rk, idx, u, st.RowProbes[idx], probes)
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
				k := st.Off[ci] + int64(x)
				if st.Rows[k] != e.u || (weighted && st.RowWts[k] != e.w) {
					t.Fatalf("rank %d column %d entry %d: row %d, want (%d, w=%d) in stream order", rk, v, x, st.Rows[k], e.u, e.w)
				}
			}
		}
		if r == 1 {
			// The block column is the owned block: column li is owned
			// vertex li, empty or not, resolved with no probe.
			if st.ColMap != nil || st.ColIds != nil || st.RowNeed != nil || len(st.Off) != st.OwnedCount()+1 {
				t.Fatalf("rank %d: R = 1 store carries ColMap %v, %d ColIds, %d RowNeed words, %d Off for %d owned",
					rk, st.ColMap != nil, len(st.ColIds), len(st.RowNeed), len(st.Off), st.OwnedCount())
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
			t.Fatalf("rank %d: %d ColIds, %d Off, ColMap holds %d, reference %d", rk, len(st.ColIds), len(st.Off), st.NonEmptyColumns(), colMaps[rk].Len())
		}
		for ci, v := range st.ColIds {
			if ci > 0 && st.ColIds[ci-1] >= v {
				t.Fatalf("rank %d: ColIds[%d]=%d does not ascend past ColIds[%d]=%d", rk, ci, v, ci-1, st.ColIds[ci-1])
			}
			if got, ok := st.ColMap.Get(v); !ok || int(got) != ci {
				t.Fatalf("rank %d: ColMap.Get(ColIds[%d]) = %d, %v", rk, ci, got, ok)
			}
			checkColumn(ci, v)
		}
		// Every lookup a search can make — hit or miss, any id — costs
		// what it cost in the map the loader used to build, one at a time
		// or a batch at a time.
		var cis [ResolveBatch]uint32
		for lo := 0; lo < n; lo += ResolveBatch {
			part := make([]uint32, 0, ResolveBatch)
			for v := lo; v < min(lo+ResolveBatch, n); v++ {
				part = append(part, uint32(v))
			}
			batch := st.ResolveColumns(part, &cis)
			for x, v := range part {
				_, wantOK, wantProbes := colMaps[rk].GetCounted(v)
				ci, ok, probes := st.ColMap.GetCounted(v)
				if ok != wantOK || probes != wantProbes {
					t.Fatalf("rank %d: looking up %d: present=%v in %d probes, reference present=%v in %d", rk, v, ok, probes, wantOK, wantProbes)
				}
				if !ok {
					ci = NoColumn
				}
				if cis[x] != ci {
					t.Fatalf("rank %d: ResolveColumns(%d) = %d, ColMap says %d", rk, v, cis[x], ci)
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
		for li := 0; li < st.OwnedCount(); li++ {
			if !slices.Equal(st.NeedWords(uint32(li)), need[rk][li*wpv:(li+1)*wpv]) {
				t.Fatalf("rank %d vertex %d: NeedWords differ from the reference", rk, li)
			}
		}
		// A cursor walked along the columns names each one's owner and
		// its index there, from the start and from any chunk start.
		for _, start := range []int{0, len(st.ColIds) / 3, len(st.ColIds) - 1} {
			owner := l.OwnerCursor()
			for ci := max(start, 0); ci < len(st.ColIds); ci++ {
				v := st.ColIds[ci]
				m, li := owner.Locate(v)
				lo, _ := l.OwnedRange(l.OwnerRank(v))
				if l.RankAt(m, st.J) != l.OwnerRank(v) || li != uint32(v-lo) {
					t.Fatalf("rank %d column %d (vertex %d): cursor says owner %d index %d, layout says rank %d index %d",
						rk, ci, v, m, li, l.OwnerRank(v), v-lo)
				}
			}
		}
	}
}

// TestMemoSeesCollisions guards the cases above against going soft: if
// no lookup in them ever took a second probe, equal probe counts would
// prove nothing.
func TestMemoSeesCollisions(t *testing.T) {
	es := poissonEdges(10)(5500)
	l2, _ := NewLayout2D(5500, 4, 4)
	st2, err := Build2D(l2, plainVisitor(es))
	if err != nil {
		t.Fatal(err)
	}
	deep := 0
	for _, st := range st2 {
		for _, p := range st.RowProbes {
			if p > 1 {
				deep++
			}
		}
	}
	if deep == 0 {
		t.Error("no 2D row lookup takes more than one probe")
	}
	l1, _ := NewLayout2D(5500, 1, 16)
	st1, err := Build2D(l1, plainVisitor(poissonEdges(3)(5500)))
	if err != nil {
		t.Fatal(err)
	}
	deep = 0
	for _, st := range st1 {
		for _, p := range st.RowProbes {
			if p > 1 {
				deep++
			}
		}
	}
	if deep == 0 {
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
	if got, err := probeCount(m, 254<<10); err != nil || got != 255 {
		t.Fatalf("the 255-probe lookup: count %d, %v", got, err)
	}
	if _, err := probeCount(m, 255<<10); err == nil {
		t.Fatal("a 256-probe lookup was squeezed into 8 bits")
	}
}
