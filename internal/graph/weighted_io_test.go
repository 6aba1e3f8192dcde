package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestWeightedEdgeListRoundTrip(t *testing.T) {
	g, err := GenerateWeighted(Params{N: 300, K: 4, Seed: 8},
		WeightSpec{Dist: WeightExponential, MaxWeight: 40, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Weighted() {
		t.Fatal("round trip dropped the weights")
	}
	if back.N != g.N || len(back.Adj) != len(g.Adj) {
		t.Fatalf("round trip changed shape: n %d->%d, adj %d->%d", g.N, back.N, len(g.Adj), len(back.Adj))
	}
	for v := 0; v < g.N; v++ {
		want := map[Vertex]uint32{}
		for i := g.Off[v]; i < g.Off[v+1]; i++ {
			want[g.Adj[i]] = g.W[i]
		}
		for i := back.Off[v]; i < back.Off[v+1]; i++ {
			if want[back.Adj[i]] != back.W[i] {
				t.Fatalf("vertex %d: edge to %d weight %d, want %d", v, back.Adj[i], back.W[i], want[back.Adj[i]])
			}
		}
	}
}

func TestWriteEdgeListKeepsWeights(t *testing.T) {
	// The latent-gap fix: saving a weighted graph through the generic
	// writer must keep the third column, not silently drop it.
	g, err := FromWeightedEdges(3, [][2]Vertex{{0, 1}, {1, 2}}, []uint32{7, 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# weighted") || !strings.Contains(out, "0 1 7") || !strings.Contains(out, "1 2 9") {
		t.Fatalf("weighted save dropped weights:\n%s", out)
	}
	back, err := ReadEdgeList(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Weighted() {
		t.Fatal("generic reader dropped the weights on load")
	}
}

func TestReadEdgeListRejectsMalformedWeights(t *testing.T) {
	cases := []struct {
		name, input string
	}{
		{"non-integer weight", "0 1 heavy\n"},
		{"zero weight", "0 1 0\n"},
		{"negative weight", "0 1 -3\n"},
		{"overflow weight", "0 1 4294967296\n"},
		{"float weight", "0 1 2.5\n"},
		{"four columns", "0 1 2 3\n"},
		{"mixed arity weighted first", "0 1 2\n1 2\n"},
		{"mixed arity unweighted first", "0 1\n1 2 2\n"},
		{"weighted header unweighted lines", "# weighted\n0 1\n"},
		{"weighted header after unweighted lines", "0 1\n# weighted\n1 2\n"},
		{"conflicting duplicate weight", "0 1 2\n1 0 3\n"},
	}
	for _, tc := range cases {
		if _, err := ReadEdgeList(strings.NewReader(tc.input)); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.input)
		}
	}
}

func TestReadEdgeListWeightedDuplicatesMerge(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1 5\n1 0 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 || g.W[0] != 5 {
		t.Fatalf("duplicate weighted edge mishandled: edges %d, w %v", g.NumEdges(), g.W)
	}
}

// FuzzWeightedEdgeListRoundTrip builds a weighted graph from arbitrary
// edge/weight bytes and asserts WriteEdgeList / ReadEdgeList round-trip
// it exactly, weights included.
func FuzzWeightedEdgeListRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 5, 1, 2, 9}, uint8(4))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{3, 3, 1}, uint8(8))
	f.Fuzz(func(t *testing.T, raw []byte, nb uint8) {
		n := int(nb%32) + 2
		var edges [][2]Vertex
		var weights []uint32
		seen := map[[2]Vertex]bool{}
		for i := 0; i+2 < len(raw); i += 3 {
			u, v := Vertex(raw[i])%Vertex(n), Vertex(raw[i+1])%Vertex(n)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if seen[[2]Vertex{u, v}] {
				continue
			}
			seen[[2]Vertex{u, v}] = true
			edges = append(edges, [2]Vertex{u, v})
			weights = append(weights, uint32(raw[i+2])+1)
		}
		if len(edges) == 0 {
			return
		}
		g, err := FromWeightedEdges(n, edges, weights)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEdgeList(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip failed on %q: %v", buf.String(), err)
		}
		if !back.Weighted() {
			t.Fatalf("round trip dropped the weights of %q", buf.String())
		}
		if back.N != g.N || len(back.Adj) != len(g.Adj) {
			t.Fatalf("shape changed: n %d->%d adj %d->%d", g.N, back.N, len(g.Adj), len(back.Adj))
		}
		for v := 0; v < g.N; v++ {
			want := map[Vertex]uint32{}
			for i := g.Off[v]; i < g.Off[v+1]; i++ {
				want[g.Adj[i]] = g.W[i]
			}
			for i := back.Off[v]; i < back.Off[v+1]; i++ {
				if want[back.Adj[i]] != back.W[i] {
					t.Fatalf("vertex %d edge %d: weight %d want %d", v, back.Adj[i], back.W[i], want[back.Adj[i]])
				}
			}
		}
	})
}
