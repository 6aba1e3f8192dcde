package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestPathFromLevelsPathGraph(t *testing.T) {
	g, err := FromEdges(5, [][2]Vertex{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	levels := BFS(g, 0)
	path, err := PathFromLevels(g, levels, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []Vertex{0, 1, 2, 3, 4}
	if len(path) != len(want) {
		t.Fatalf("path %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path %v, want %v", path, want)
		}
	}
	if err := validatePath(g, path, 0, 4); err != nil {
		t.Fatal(err)
	}
}

func TestPathFromLevelsRandomGraph(t *testing.T) {
	g, err := Generate(Params{N: 3000, K: 5, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	src := LargestComponentVertex(g)
	levels := BFS(g, src)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		dst := Vertex(rng.Intn(g.N))
		if levels[dst] == Unreached {
			if _, err := PathFromLevels(g, levels, src, dst); err == nil {
				t.Fatal("path to unreached vertex accepted")
			}
			continue
		}
		path, err := PathFromLevels(g, levels, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if int32(len(path)-1) != levels[dst] {
			t.Fatalf("path length %d, distance %d", len(path)-1, levels[dst])
		}
		if err := validatePath(g, path, src, dst); err != nil {
			t.Fatal(err)
		}
		// Shortest: every step descends exactly one level.
		for i, v := range path {
			if levels[v] != int32(i) {
				t.Fatalf("path[%d]=%d at level %d", i, v, levels[v])
			}
		}
	}
}

func TestPathFromLevelsSourceOnly(t *testing.T) {
	g, err := FromEdges(3, [][2]Vertex{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	levels := BFS(g, 0)
	path, err := PathFromLevels(g, levels, 0, 0)
	if err != nil || len(path) != 1 || path[0] != 0 {
		t.Fatalf("trivial path: %v, %v", path, err)
	}
}

func TestPathFromLevelsValidation(t *testing.T) {
	g, err := FromEdges(4, [][2]Vertex{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	levels := BFS(g, 0)
	if _, err := PathFromLevels(g, levels[:2], 0, 1); err == nil {
		t.Error("short levels accepted")
	}
	if _, err := PathFromLevels(g, levels, 1, 2); err == nil {
		t.Error("wrong source accepted")
	}
	// Corrupt labeling: orphan level.
	bad := append([]int32(nil), levels...)
	bad[2] = 5
	if _, err := PathFromLevels(g, bad, 0, 2); err == nil {
		t.Error("inconsistent labeling accepted")
	}
}

func TestValidatePathRejectsNonPaths(t *testing.T) {
	g, err := FromEdges(4, [][2]Vertex{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := validatePath(g, []Vertex{0, 2}, 0, 2); err == nil {
		t.Error("non-edge step accepted")
	}
	if err := validatePath(g, []Vertex{0, 1}, 0, 2); err == nil {
		t.Error("wrong endpoint accepted")
	}
	if err := validatePath(g, nil, 0, 0); err == nil {
		t.Error("empty path accepted")
	}
	if err := validatePath(g, []Vertex{0, 1, 2, 3}, 0, 3); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
}

// validatePath checks that path is a genuine path in g from src to dst
// (consecutive vertices adjacent, endpoints correct).
func validatePath(g *CSR, path []Vertex, src, dst Vertex) error {
	if len(path) == 0 {
		return fmt.Errorf("graph: empty path")
	}
	if path[0] != src || path[len(path)-1] != dst {
		return fmt.Errorf("graph: path endpoints (%d,%d), want (%d,%d)",
			path[0], path[len(path)-1], src, dst)
	}
	for i := 1; i < len(path); i++ {
		adjacent := false
		for _, u := range g.Neighbors(path[i-1]) {
			if u == path[i] {
				adjacent = true
				break
			}
		}
		if !adjacent {
			return fmt.Errorf("graph: path step %d→%d is not an edge", path[i-1], path[i])
		}
	}
	return nil
}
