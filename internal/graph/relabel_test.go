package graph

import "testing"

// inversePerm inverts perm, failing t unless perm is a bijection on
// [0, len(perm)).
func inversePerm(t *testing.T, perm []Vertex) []Vertex {
	t.Helper()
	inv := make([]Vertex, len(perm))
	seen := make([]bool, len(perm))
	for old, nw := range perm {
		if int(nw) >= len(perm) || seen[nw] {
			t.Fatalf("new id %d out of range or given twice", nw)
		}
		inv[nw], seen[nw] = Vertex(old), true
	}
	return inv
}

func TestRelabelPreservesStructure(t *testing.T) {
	g, err := Generate(Params{N: 2000, K: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The permutation is a bijection for every seed: inversePerm fails
	// on an id out of range or given twice.
	for seed := int64(0); seed < 5; seed++ {
		_, perm := Relabel(g, seed)
		if len(perm) != g.N {
			t.Fatalf("seed %d: permutation of %d ids, want %d", seed, len(perm), g.N)
		}
		inversePerm(t, perm)
	}
	rg, perm := Relabel(g, 99)
	if rg.N != g.N || len(rg.Adj) != len(g.Adj) {
		t.Fatalf("size changed: %d/%d vs %d/%d", rg.N, len(rg.Adj), g.N, len(g.Adj))
	}
	// Degrees transport back through the inverse.
	inv := inversePerm(t, perm)
	for nv := 0; nv < rg.N; nv++ {
		if rg.Degree(Vertex(nv)) != g.Degree(inv[nv]) {
			t.Fatalf("degree of %d changed under relabeling", inv[nv])
		}
	}
	// Adjacency transports: perm(N(v)) == N(perm(v)) as sets.
	for v := 0; v < g.N; v += 37 {
		want := map[Vertex]bool{}
		for _, u := range g.Neighbors(Vertex(v)) {
			want[perm[u]] = true
		}
		for _, u := range rg.Neighbors(perm[v]) {
			if !want[u] {
				t.Fatalf("vertex %d: spurious neighbor %d after relabel", v, u)
			}
			delete(want, u)
		}
		if len(want) != 0 {
			t.Fatalf("vertex %d: missing neighbors after relabel", v)
		}
	}
}

func TestRelabelBFSEquivariant(t *testing.T) {
	g, err := Generate(Params{N: 1500, K: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	rg, perm := Relabel(g, 7)
	src := LargestComponentVertex(g)
	orig := BFS(g, src)
	rel := BFS(rg, perm[src])
	for v := 0; v < g.N; v++ {
		if orig[v] != rel[perm[v]] {
			t.Fatalf("level of %d changed: %d vs %d", v, orig[v], rel[perm[v]])
		}
	}
}

func TestRelabelDeterministic(t *testing.T) {
	g, err := Generate(Params{N: 500, K: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, p1 := Relabel(g, 3)
	_, p2 := Relabel(g, 3)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("relabel not deterministic")
		}
	}
	_, p3 := Relabel(g, 4)
	same := true
	for i := range p1 {
		if p1[i] != p3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical permutations")
	}
}

func TestRelabelKeepsWeights(t *testing.T) {
	g, err := GenerateWeighted(Params{N: 400, K: 5, Seed: 6},
		WeightSpec{Dist: WeightUniform, MaxWeight: 90, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rg, perm := Relabel(g, 3)
	if !rg.Weighted() {
		t.Fatal("relabel dropped the edge weights")
	}
	for v := 0; v < g.N; v++ {
		want := map[Vertex]uint32{}
		for i := g.Off[v]; i < g.Off[v+1]; i++ {
			want[perm[g.Adj[i]]] = g.W[i]
		}
		nv := perm[v]
		for i := rg.Off[nv]; i < rg.Off[nv+1]; i++ {
			if want[rg.Adj[i]] != rg.W[i] {
				t.Fatalf("vertex %d->%d: edge to %d weight %d, want %d",
					v, nv, rg.Adj[i], rg.W[i], want[rg.Adj[i]])
			}
		}
	}
	// Shortest paths are invariant under relabeling.
	src := LargestComponentVertex(g)
	want := Dijkstra(g, src)
	got := Dijkstra(rg, perm[src])
	for v := range want {
		if got[perm[v]] != want[v] {
			t.Fatalf("dist of %d changed under relabel: %d vs %d", v, got[perm[v]], want[v])
		}
	}
}
