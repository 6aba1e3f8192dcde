package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestLayout2DValidation(t *testing.T) {
	if _, err := NewLayout2D(0, 2, 2); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewLayout2D(10, 0, 2); err == nil {
		t.Error("r=0 accepted")
	}
	if _, err := NewLayout2D(10, 2, -1); err == nil {
		t.Error("c<0 accepted")
	}
}

func TestLayout2DOwnership(t *testing.T) {
	l, err := NewLayout2D(24, 2, 3) // P=6, bs=4
	if err != nil {
		t.Fatal(err)
	}
	if l.BlockSize() != 4 {
		t.Fatalf("BlockSize = %d", l.BlockSize())
	}
	// Every vertex has exactly one owner, and owner ranges tile [0, N).
	seen := make([]int, 24)
	for r := 0; r < l.P(); r++ {
		lo, hi := l.OwnedRange(r)
		for v := lo; v < hi; v++ {
			seen[v]++
			if l.OwnerRank(v) != r {
				t.Fatalf("OwnerRank(%d) = %d, but rank %d owns it", v, l.OwnerRank(v), r)
			}
		}
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("vertex %d owned %d times", v, c)
		}
	}
}

// TestLayout2DExpandInvariant: the ranks storing the edge list (matrix
// column) of v form exactly the processor-column of v's owner — the
// structural fact the expand operation relies on.
func TestLayout2DExpandInvariant(t *testing.T) {
	l, err := NewLayout2D(100, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := graph.Vertex(0); v < 100; v++ {
		owner := l.OwnerRank(v)
		_, ownerJ := l.MeshOf(owner)
		if l.ColBlockOf(v) != ownerJ {
			t.Fatalf("vertex %d: column block %d but owner column %d", v, l.ColBlockOf(v), ownerJ)
		}
		// Every storing rank for entries (u, v) is in mesh column ownerJ.
		for u := graph.Vertex(0); u < 100; u += 7 {
			rk := l.StoringRank(u, v)
			_, j := l.MeshOf(rk)
			if j != ownerJ {
				t.Fatalf("entry (%d,%d) stored in column %d, owner column %d", u, v, j, ownerJ)
			}
		}
	}
}

// TestLayout2DFoldInvariant: the owner of any u found on rank (i,j)
// lies in mesh row i — the structural fact the fold operation relies on.
func TestLayout2DFoldInvariant(t *testing.T) {
	l, err := NewLayout2D(60, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for u := graph.Vertex(0); u < 60; u++ {
		for v := graph.Vertex(0); v < 60; v++ {
			rk := l.StoringRank(u, v)
			i, _ := l.MeshOf(rk)
			ownerI, _ := l.MeshOf(l.OwnerRank(u))
			if i != ownerI {
				t.Fatalf("entry (%d,%d) stored in row %d but owner of %d is in row %d", u, v, i, u, ownerI)
			}
		}
	}
}

func TestLayout2DQuick(t *testing.T) {
	f := func(nRaw uint16, rRaw, cRaw uint8, vRaw uint16) bool {
		n := int(nRaw)%500 + 1
		r := int(rRaw)%5 + 1
		c := int(cRaw)%5 + 1
		l, err := NewLayout2D(n, r, c)
		if err != nil {
			return false
		}
		v := graph.Vertex(int(vRaw) % n)
		rank := l.OwnerRank(v)
		if rank < 0 || rank >= l.P() {
			return false
		}
		lo, hi := l.OwnedRange(rank)
		if v < lo || v >= hi {
			return false
		}
		i, j := l.MeshOf(rank)
		if l.RankAt(i, j) != rank {
			return false
		}
		// Owned counts sum to n.
		total := 0
		for q := 0; q < l.P(); q++ {
			total += l.OwnedCount(q)
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLayout1DBasics: the conventional 1D partitioning is the 1 x P
// layout, rank q owning the q-th block.
func TestLayout1DBasics(t *testing.T) {
	l, err := NewLayout2D(10, 1, 3) // bs = 4
	if err != nil {
		t.Fatal(err)
	}
	if l.OwnerRank(0) != 0 || l.OwnerRank(4) != 1 || l.OwnerRank(9) != 2 {
		t.Fatal("1D ownership wrong")
	}
	if l.OwnedCount(0) != 4 || l.OwnedCount(2) != 2 {
		t.Fatalf("1D counts wrong: %d %d", l.OwnedCount(0), l.OwnedCount(2))
	}
	if _, err := NewLayout2D(5, 1, 0); err == nil {
		t.Error("p=0 accepted")
	}
}

// TestColBlockOfOneDivision: ColBlockOf's single division by R·bs is
// the two-division BlockOf(v) / R for every vertex, the last partial
// block included.
func TestColBlockOfOneDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, mesh := range [][2]int{{1, 1}, {1, 16}, {4, 4}, {16, 1}, {3, 5}} {
		for _, n := range []int{1, 15, 16, 17, 1000, 99991} {
			l, err := NewLayout2D(n, mesh[0], mesh[1])
			if err != nil {
				t.Fatal(err)
			}
			vs := []int{0, n - 1, (n - 1) / l.BlockSize() * l.BlockSize()} // ends, last block's start
			for i := 0; i < 200; i++ {
				vs = append(vs, rng.Intn(n))
			}
			for _, v := range vs {
				if got, want := l.ColBlockOf(graph.Vertex(v)), l.BlockOf(graph.Vertex(v))/l.R; got != want {
					t.Fatalf("mesh %v n=%d: ColBlockOf(%d) = %d, BlockOf/R = %d", mesh, n, v, got, want)
				}
			}
		}
	}
}

// partialList returns the partial edge list st holds for v, nil if none.
func partialList(st *Store2D, v graph.Vertex) []graph.Vertex {
	lo, hi, ok := column(st, v)
	if !ok {
		return nil
	}
	return st.Rows[lo:hi]
}

// partialWeights returns the weights parallel to partialList(st, v).
func partialWeights(st *Store2D, v graph.Vertex) []uint32 {
	lo, hi, ok := column(st, v)
	if !ok || st.RowWts == nil {
		return nil
	}
	return st.RowWts[lo:hi]
}

// column returns the [lo, hi) span of v's list in st's Rows.
func column(st *Store2D, v graph.Vertex) (lo, hi int64, ok bool) {
	ci, ok := uint32(v-st.Lo), v >= st.Lo && v < st.Hi // R = 1: columns are owned vertices
	if st.ColMap != nil {
		ci, ok = st.ColMap.Get(v)
	}
	if !ok {
		return 0, 0, false
	}
	return st.Off[ci], st.Off[ci+1], true
}

func visitCSR(g *graph.CSR) func(func(u, v graph.Vertex)) error {
	return func(fn func(u, v graph.Vertex)) error {
		for v := 0; v < g.N; v++ {
			for _, u := range g.Neighbors(graph.Vertex(v)) {
				if graph.Vertex(v) < u {
					fn(graph.Vertex(v), u)
				}
			}
		}
		return nil
	}
}

// TestBuild1DMatchesCSR: on a 1 x P mesh each rank holds the full edge
// list of every owned vertex, in columns indexed by local index with the
// empty lists kept in place.
func TestBuild1DMatchesCSR(t *testing.T) {
	g, err := graph.Generate(graph.Params{N: 300, K: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	l, _ := NewLayout2D(g.N, 1, 4)
	stores, err := Build2D(l, visitCSR(g))
	if err != nil {
		t.Fatal(err)
	}
	totalEdges := int64(0)
	for _, st := range stores {
		if len(st.Off) != st.OwnedCount()+1 || st.ColMap != nil || st.ColIds != nil || st.RowNeed != nil {
			t.Fatalf("rank %d: %d Off for %d owned, ColMap %v, %d ColIds, %d RowNeed", st.Rank,
				len(st.Off), st.OwnedCount(), st.ColMap != nil, len(st.ColIds), len(st.RowNeed))
		}
		totalEdges += int64(len(st.Rows))
		for li := uint32(0); li < uint32(st.OwnedCount()); li++ {
			v := st.GlobalOf(li)
			got := st.Rows[st.Off[li]:st.Off[li+1]]
			want := g.Neighbors(v)
			if len(got) != len(want) {
				t.Fatalf("vertex %d: %d neighbors, want %d", v, len(got), len(want))
			}
			wantSet := map[graph.Vertex]bool{}
			for _, u := range want {
				wantSet[u] = true
			}
			for _, u := range got {
				if !wantSet[u] {
					t.Fatalf("vertex %d: spurious neighbor %d", v, u)
				}
			}
		}
	}
	if totalEdges != 2*g.NumEdges() {
		t.Fatalf("total directed entries %d, want %d", totalEdges, 2*g.NumEdges())
	}
}

func TestBuild2DCoversAllEntries(t *testing.T) {
	g, err := graph.Generate(graph.Params{N: 240, K: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, mesh := range [][2]int{{1, 1}, {2, 3}, {4, 4}, {1, 6}, {6, 1}} {
		l, err := NewLayout2D(g.N, mesh[0], mesh[1])
		if err != nil {
			t.Fatal(err)
		}
		stores, err := Build2D(l, visitCSR(g))
		if err != nil {
			t.Fatal(err)
		}
		// Reconstruct every column from the distributed partial lists
		// and compare against the CSR.
		for v := graph.Vertex(0); int(v) < g.N; v++ {
			var rebuilt []graph.Vertex
			j := l.ColBlockOf(v)
			for i := 0; i < l.R; i++ {
				st := stores[l.RankAt(i, j)]
				part := partialList(st, v)
				for _, u := range part {
					if l.RowIndexOf(u) != i {
						t.Fatalf("mesh %v: entry (%d,%d) on wrong row %d", mesh, u, v, i)
					}
				}
				rebuilt = append(rebuilt, part...)
			}
			want := g.Neighbors(v)
			if len(rebuilt) != len(want) {
				t.Fatalf("mesh %v: vertex %d rebuilt %d entries, want %d", mesh, v, len(rebuilt), len(want))
			}
			wantSet := map[graph.Vertex]int{}
			for _, u := range want {
				wantSet[u]++
			}
			for _, u := range rebuilt {
				wantSet[u]--
				if wantSet[u] < 0 {
					t.Fatalf("mesh %v: vertex %d spurious entry %d", mesh, v, u)
				}
			}
		}
	}
}

func TestBuild2DRowNeed(t *testing.T) {
	g, err := graph.Generate(graph.Params{N: 200, K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLayout2D(g.N, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	stores, err := Build2D(l, visitCSR(g))
	if err != nil {
		t.Fatal(err)
	}
	for v := graph.Vertex(0); int(v) < g.N; v++ {
		owner := stores[l.OwnerRank(v)]
		li := owner.LocalOf(v)
		j := l.ColBlockOf(v)
		for i := 0; i < l.R; i++ {
			st := stores[l.RankAt(i, j)]
			nonEmpty := len(partialList(st, v)) > 0
			if needs := owner.NeedWords(li)[i/64]&(1<<(i%64)) != 0; needs != nonEmpty {
				t.Fatalf("vertex %d row %d: need bit=%v but list non-empty=%v", v, i, needs, nonEmpty)
			}
		}
	}
}

// TestBuild2DNonEmptyColumnsBound checks the §2.4.1 memory argument:
// the number of non-empty partial edge lists per rank stays O(n/P + k)
// rather than O(n/C).
func TestBuild2DNonEmptyColumnsBound(t *testing.T) {
	g, err := graph.Generate(graph.Params{N: 4000, K: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLayout2D(g.N, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	stores, err := Build2D(l, visitCSR(g))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stores {
		// Upper bound: number of entries on the rank (each non-empty
		// column has >= 1 entry) and the trivial n/C bound.
		if st.NonEmptyColumns() > len(st.Rows) {
			t.Fatalf("rank %d: %d non-empty columns with %d entries", st.Rank, st.NonEmptyColumns(), len(st.Rows))
		}
		// The expected count is ~ (n/P)*k for this regime; assert it is
		// well below the dense n/C bound.
		dense := g.N / l.C
		if st.NonEmptyColumns() >= dense {
			t.Fatalf("rank %d: non-empty columns %d not below dense bound %d", st.Rank, st.NonEmptyColumns(), dense)
		}
	}
}

func TestLayout2DOneDimensionalEquivalence(t *testing.T) {
	// R=1 reduces to the conventional 1D partitioning: each rank stores
	// full edge lists of its owned vertices.
	g, err := graph.Generate(graph.Params{N: 120, K: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	l2, _ := NewLayout2D(g.N, 1, 4)
	stores, err := Build2D(l2, visitCSR(g))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stores {
		for v := st.Lo; v < st.Hi; v++ {
			if len(partialList(st, v)) != g.Degree(v) {
				t.Fatalf("R=1: vertex %d partial list %d != degree %d", v, len(partialList(st, v)), g.Degree(v))
			}
		}
	}
}
