package graph

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/analytic"
)

func TestParamsValidate(t *testing.T) {
	if err := (Params{N: 0, K: 1}).validate(); err == nil {
		t.Error("N=0 accepted")
	}
	if err := (Params{N: 10, K: -1}).validate(); err == nil {
		t.Error("K<0 accepted")
	}
	if err := (Params{N: 10, K: 10}).validate(); err == nil {
		t.Error("K>N-1 accepted")
	}
	if err := (Params{N: 10, K: 3}).validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestPairFromIndex(t *testing.T) {
	n := int64(6)
	idx := int64(0)
	for u := int64(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			gu, gv := pairFromIndex(idx, n)
			if int64(gu) != u || int64(gv) != v {
				t.Fatalf("pairFromIndex(%d) = (%d,%d), want (%d,%d)", idx, gu, gv, u, v)
			}
			idx++
		}
	}
}

func TestPairFromIndexLargeN(t *testing.T) {
	// Exercise the float fixup with big n at row boundaries.
	n := int64(1 << 20)
	rowStart := func(u int64) int64 { return u*n - u*(u+1)/2 }
	for _, u := range []int64{0, 1, 1000, n / 2, n - 2} {
		for _, off := range []int64{0, 1} {
			idx := rowStart(u) + off
			if idx >= n*(n-1)/2 {
				continue
			}
			gu, gv := pairFromIndex(idx, n)
			if int64(gu) != u || int64(gv) != u+1+off {
				t.Fatalf("pairFromIndex(%d) = (%d,%d), want (%d,%d)", idx, gu, gv, u, u+1+off)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Params{N: 2000, K: 8, Seed: 42}
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Adj) != len(b.Adj) {
		t.Fatalf("edge counts differ: %d vs %d", len(a.Adj), len(b.Adj))
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] {
			t.Fatalf("adjacency differs at %d", i)
		}
	}
	c, err := Generate(Params{N: 2000, K: 8, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Adj) == len(a.Adj) {
		same := true
		for i := range a.Adj {
			if a.Adj[i] != c.Adj[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestGenerateAverageDegree(t *testing.T) {
	for _, k := range []float64{2, 10, 50} {
		g, err := Generate(Params{N: 20000, K: k, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		got := g.AvgDegree()
		// Mean degree concentrates tightly: stddev of avg degree is
		// about sqrt(2k/n); allow 6 sigma.
		tol := 6 * math.Sqrt(2*k/20000)
		if math.Abs(got-k) > tol {
			t.Errorf("K=%g: measured avg degree %g beyond tolerance %g", k, got, tol)
		}
	}
}

func TestGenerateEdgesValid(t *testing.T) {
	p := Params{N: 500, K: 6, Seed: 3}
	seen := map[[2]Vertex]bool{}
	err := p.VisitEdges(func(u, v Vertex) {
		if u >= v {
			t.Fatalf("edge (%d,%d) not ordered", u, v)
		}
		if int(v) >= p.N {
			t.Fatalf("edge (%d,%d) out of range", u, v)
		}
		key := [2]Vertex{u, v}
		if seen[key] {
			t.Fatalf("duplicate edge (%d,%d)", u, v)
		}
		seen[key] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("no edges generated")
	}
}

func TestGenerateSymmetric(t *testing.T) {
	g, err := Generate(Params{N: 1000, K: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Build neighbor sets and check symmetry.
	adj := make([]map[Vertex]bool, g.N)
	for v := 0; v < g.N; v++ {
		adj[v] = map[Vertex]bool{}
		for _, u := range g.Neighbors(Vertex(v)) {
			if u == Vertex(v) {
				t.Fatalf("self loop at %d", v)
			}
			adj[v][u] = true
		}
	}
	for v := 0; v < g.N; v++ {
		for u := range adj[v] {
			if !adj[u][Vertex(v)] {
				t.Fatalf("edge (%d,%d) not symmetric", v, u)
			}
		}
	}
}

func TestGenerateEdgeCases(t *testing.T) {
	g, err := Generate(Params{N: 1, K: 0, Seed: 1})
	if err != nil || g.NumEdges() != 0 {
		t.Fatalf("single vertex: %v, edges=%d", err, g.NumEdges())
	}
	g, err = Generate(Params{N: 100, K: 0, Seed: 1})
	if err != nil || g.NumEdges() != 0 {
		t.Fatalf("K=0: %v, edges=%d", err, g.NumEdges())
	}
	// p = 1: complete graph.
	g, err = Generate(Params{N: 20, K: 19, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 20*19/2 {
		t.Fatalf("complete graph edges = %d, want %d", g.NumEdges(), 20*19/2)
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(4, [][2]Vertex{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(1), g.Degree(0))
	}
	if _, err := FromEdges(4, [][2]Vertex{{2, 2}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := FromEdges(4, [][2]Vertex{{0, 9}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestBFSPathGraph(t *testing.T) {
	g, err := FromEdges(5, [][2]Vertex{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	levels := BFS(g, 0)
	for v, want := range []int32{0, 1, 2, 3, 4} {
		if levels[v] != want {
			t.Errorf("level[%d] = %d, want %d", v, levels[v], want)
		}
	}
	levels = BFS(g, 2)
	for v, want := range []int32{2, 1, 0, 1, 2} {
		if levels[v] != want {
			t.Errorf("from 2: level[%d] = %d, want %d", v, levels[v], want)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g, err := FromEdges(4, [][2]Vertex{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	levels := BFS(g, 0)
	if levels[2] != Unreached || levels[3] != Unreached {
		t.Error("unreachable vertices got levels")
	}
	if Distance(g, 0, 3) != Unreached {
		t.Error("Distance across components not Unreached")
	}
	if Distance(g, 2, 3) != 1 {
		t.Error("Distance(2,3) != 1")
	}
	if Distance(g, 1, 1) != 0 {
		t.Error("Distance(v,v) != 0")
	}
}

// TestBFSLevelsConsistent: every edge spans at most one level and every
// reached non-source vertex has a neighbor one level closer.
func TestBFSLevelsConsistent(t *testing.T) {
	g, err := Generate(Params{N: 3000, K: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	src := LargestComponentVertex(g)
	levels := BFS(g, src)
	if levels[src] != 0 {
		t.Fatal("source level != 0")
	}
	for v := 0; v < g.N; v++ {
		lv := levels[v]
		if lv == Unreached {
			for _, u := range g.Neighbors(Vertex(v)) {
				if levels[u] != Unreached {
					t.Fatalf("unreached vertex %d adjacent to reached %d", v, u)
				}
			}
			continue
		}
		hasParent := lv == 0
		for _, u := range g.Neighbors(Vertex(v)) {
			lu := levels[u]
			if lu == Unreached {
				t.Fatalf("reached vertex %d adjacent to unreached %d", v, u)
			}
			d := lu - lv
			if d < -1 || d > 1 {
				t.Fatalf("edge (%d,%d) spans levels %d,%d", v, u, lv, lu)
			}
			if lu == lv-1 {
				hasParent = true
			}
		}
		if !hasParent {
			t.Fatalf("vertex %d at level %d has no parent", v, lv)
		}
	}
}

func TestEccentricityAndDiameterEstimate(t *testing.T) {
	g, err := Generate(Params{N: 10000, K: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	src := LargestComponentVertex(g)
	ecc, reached := Eccentricity(g, src)
	if reached < g.N/2 {
		t.Fatalf("giant component too small: %d", reached)
	}
	est := analytic.ExpectedDiameter(g.N, 8)
	if float64(ecc) < est/2 || float64(ecc) > est*3 {
		t.Errorf("eccentricity %d far from log n / log k estimate %.1f", ecc, est)
	}
	if !math.IsInf(analytic.ExpectedDiameter(10, 1), 1) {
		t.Error("ExpectedDiameter with k<=1 should be infinite")
	}
}

// TestDistanceQuick: Distance agrees with full BFS levels.
func TestDistanceQuick(t *testing.T) {
	g, err := Generate(Params{N: 400, K: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	f := func(sRaw, tRaw uint16) bool {
		s := Vertex(int(sRaw) % g.N)
		dst := Vertex(int(tRaw) % g.N)
		levels := BFS(g, s)
		return Distance(g, s, dst) == levels[dst]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g, err := FromEdges(4, [][2]Vertex{{0, 1}, {0, 2}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	hist := g.DegreeHistogram()
	if hist[1] != 3 || hist[3] != 1 {
		t.Fatalf("hist = %v", hist)
	}
}
