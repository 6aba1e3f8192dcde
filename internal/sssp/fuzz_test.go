package sssp

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/partition"
)

// FuzzDeltaSteppingVsDijkstra builds a random weighted graph from the
// fuzz bytes, picks a random Δ, source, mesh, and wire codec from the
// seed words, and asserts distributed Δ-stepping equals the serial
// Dijkstra oracle exactly. This is the adversarial pin on the
// distributed relaxation machinery: stale bucket entries, light/heavy
// misclassification, duplicate requests across owners, and codec
// corruption all surface as a distance mismatch.
func FuzzDeltaSteppingVsDijkstra(f *testing.F) {
	f.Add([]byte{0, 1, 5, 1, 2, 9, 2, 3, 1}, uint32(4), uint16(7), uint8(1))
	f.Add([]byte{0, 1, 1, 0, 2, 200}, uint32(0), uint16(0), uint8(6))
	f.Add([]byte{9, 3, 255, 3, 1, 128, 1, 9, 7}, ^uint32(0), uint16(3), uint8(11))
	f.Fuzz(func(t *testing.T, raw []byte, delta uint32, srcSeed uint16, cfg uint8) {
		n := 24
		var edges [][2]graph.Vertex
		var weights []uint32
		seen := map[[2]graph.Vertex]bool{}
		for i := 0; i+2 < len(raw); i += 3 {
			u, v := graph.Vertex(raw[i])%graph.Vertex(n), graph.Vertex(raw[i+1])%graph.Vertex(n)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if seen[[2]graph.Vertex{u, v}] {
				continue
			}
			seen[[2]graph.Vertex{u, v}] = true
			edges = append(edges, [2]graph.Vertex{u, v})
			weights = append(weights, uint32(raw[i+2])+1)
		}
		g, err := graph.FromWeightedEdges(n, edges, weights)
		if err != nil {
			t.Fatal(err)
		}
		src := graph.Vertex(srcSeed) % graph.Vertex(n)
		want := graph.Dijkstra(g, src)

		meshes := [][2]int{{1, 1}, {2, 2}, {1, 4}, {4, 1}, {3, 2}}
		mesh := meshes[int(cfg)%len(meshes)]
		wires := []frontier.WireMode{frontier.WireSparse, frontier.WireDense, frontier.WireAuto, frontier.WireHybrid}
		wire := wires[(int(cfg)/len(meshes))%len(wires)]

		l, err := partition.NewLayout2D(n, mesh[0], mesh[1])
		if err != nil {
			t.Fatal(err)
		}
		stores, err := partition.Build2DWeighted(l, g.VisitWeightedEdges)
		if err != nil {
			t.Fatal(err)
		}
		w, err := comm.NewWorld(comm.Config{P: mesh[0] * mesh[1]})
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions(src)
		opts.Delta = delta
		opts.Wire = wire
		res, err := Run2D(w, stores, opts)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if res.Dist[v] != want[v] {
				t.Fatalf("mesh %v wire %v delta %d src %d: dist[%d] = %d, serial dijkstra %d",
					mesh, wire, delta, src, v, res.Dist[v], want[v])
			}
		}

		// The conventional 1D partitioning (a 1 x 3 mesh) must agree too.
		l1, err := partition.NewLayout2D(n, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		stores1, err := partition.Build2DWeighted(l1, g.VisitWeightedEdges)
		if err != nil {
			t.Fatal(err)
		}
		w1, err := comm.NewWorld(comm.Config{P: 3})
		if err != nil {
			t.Fatal(err)
		}
		res1, err := Run2D(w1, stores1, opts)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if res1.Dist[v] != want[v] {
				t.Fatalf("1D wire %v delta %d src %d: dist[%d] = %d, serial dijkstra %d",
					wire, delta, src, v, res1.Dist[v], want[v])
			}
		}
	})
}
