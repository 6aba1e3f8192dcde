package torus

import "testing"

// TestRouteTableReproducesRoute: the precomputed link-index routes are
// Torus.Route hop for hop on every ordered rank pair, over mappings that
// exercise wraparound, size-2 dimensions (both directions reach the same
// neighbor: one link), a ring, unused torus nodes and the Figure 1
// plane tiling.
func TestRouteTableReproducesRoute(t *testing.T) {
	rowMajor := func(tor Torus, p int) *Mapping {
		m, err := RowMajor(tor, p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	planes, err := Planes(Torus{DX: 2, DY: 2, DZ: 4}, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		m    *Mapping
		p    int
	}{
		{"2x2 mesh", rowMajor(FitTorus(4), 4), 4},
		{"4x4 mesh, planes", planes, 16},
		{"4x4 mesh, row-major", rowMajor(FitTorus(16), 16), 16},
		{"1x16 ring", rowMajor(Torus{DX: 16, DY: 1, DZ: 1}, 16), 16},
		{"uneven 5x3x2, 27 of 30 nodes", rowMajor(Torus{DX: 5, DY: 3, DZ: 2}, 27), 27},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := NewRouteTable(tc.m, tc.p)
			used := map[Link]bool{}
			for src := 0; src < tc.p; src++ {
				for dst := 0; dst < tc.p; dst++ {
					path := tc.m.Torus.Route(tc.m.Coords[src], tc.m.Coords[dst])
					route := rt.Route(src, dst)
					if len(route) != len(path)-1 || len(route) != tc.m.Hops(src, dst) {
						t.Fatalf("%d→%d: table has %d hops, Route %d, Hops %d", src, dst, len(route), len(path)-1, tc.m.Hops(src, dst))
					}
					for i, id := range route {
						want := Link{path[i], path[i+1]}
						if got := rt.Link(int(id)); got != want {
							t.Fatalf("%d→%d hop %d: table says %v, Route says %v", src, dst, i, got, want)
						}
						if back, ok := rt.LinkID(want.From, want.To); !ok || back != int(id) {
							t.Fatalf("LinkID(%v) = %d, %v; want %d", want, back, ok, id)
						}
						used[want] = true
					}
				}
			}
			if rt.NumLinks() != len(used) {
				t.Fatalf("table numbers %d links, the routes use %d distinct ones", rt.NumLinks(), len(used))
			}
			if _, ok := rt.LinkID(Coord{0, 0, 0}, Coord{0, 0, 0}); ok {
				t.Fatal("LinkID found a self link")
			}
		})
	}
}
