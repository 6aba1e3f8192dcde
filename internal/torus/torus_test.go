package torus

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNodes(t *testing.T) {
	if got := (Torus{DX: 4, DY: 2, DZ: 3}).Nodes(); got != 24 {
		t.Fatalf("Nodes = %d, want 24", got)
	}
}

func TestWrapDist(t *testing.T) {
	cases := []struct{ a, b, d, want int }{
		{0, 0, 8, 0},
		{0, 1, 8, 1},
		{0, 7, 8, 1}, // wraparound
		{0, 4, 8, 4},
		{2, 6, 8, 4},
		{1, 6, 8, 3},
		{0, 0, 1, 0},
	}
	for _, c := range cases {
		if got := wrapDist(c.a, c.b, c.d); got != c.want {
			t.Errorf("wrapDist(%d,%d,%d) = %d, want %d", c.a, c.b, c.d, got, c.want)
		}
	}
}

func TestHopsSymmetricAndTriangle(t *testing.T) {
	tor := Torus{DX: 5, DY: 4, DZ: 3}
	rng := rand.New(rand.NewSource(1))
	randCoord := func() Coord {
		return Coord{rng.Intn(tor.DX), rng.Intn(tor.DY), rng.Intn(tor.DZ)}
	}
	for i := 0; i < 500; i++ {
		a, b, c := randCoord(), randCoord(), randCoord()
		if tor.Hops(a, b) != tor.Hops(b, a) {
			t.Fatalf("Hops not symmetric for %v,%v", a, b)
		}
		if tor.Hops(a, a) != 0 {
			t.Fatalf("Hops(a,a) != 0 for %v", a)
		}
		if tor.Hops(a, c) > tor.Hops(a, b)+tor.Hops(b, c) {
			t.Fatalf("triangle inequality violated for %v,%v,%v", a, b, c)
		}
	}
}

func TestRouteMatchesHops(t *testing.T) {
	tor := Torus{DX: 6, DY: 3, DZ: 2}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		a := Coord{rng.Intn(tor.DX), rng.Intn(tor.DY), rng.Intn(tor.DZ)}
		b := Coord{rng.Intn(tor.DX), rng.Intn(tor.DY), rng.Intn(tor.DZ)}
		path := tor.Route(nil, a, b)
		if path[0] != a || path[len(path)-1] != b {
			t.Fatalf("route endpoints wrong: %v", path)
		}
		if got, want := len(path)-1, tor.Hops(a, b); got != want {
			t.Fatalf("route length %d != hops %d for %v->%v", got, want, a, b)
		}
		for s := 1; s < len(path); s++ {
			if tor.Hops(path[s-1], path[s]) != 1 {
				t.Fatalf("route step %v->%v is not one hop", path[s-1], path[s])
			}
		}
	}
}

func TestRowMajorMapping(t *testing.T) {
	tor := Torus{DX: 4, DY: 4, DZ: 2}
	m, err := RowMajor(tor, 32)
	if err != nil {
		t.Fatalf("RowMajor: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if m.Coords[0] != (Coord{0, 0, 0}) {
		t.Errorf("rank 0 at %v, want origin", m.Coords[0])
	}
	if m.Coords[5] != (Coord{1, 1, 0}) {
		t.Errorf("rank 5 at %v, want {1,1,0}", m.Coords[5])
	}
	if _, err := RowMajor(tor, 33); err == nil {
		t.Error("expected error when ranks exceed torus size")
	}
}

func TestPlanesMappingFigure1(t *testing.T) {
	// The Figure 1 example: Lx x Ly logical array onto a wc x wr x 4
	// torus. Use Lx=4 (R), Ly=6 (C) with 3x2 tiles -> 4 planes.
	tor := Torus{DX: 3, DY: 2, DZ: 4}
	m, err := Planes(tor, 4, 6)
	if err != nil {
		t.Fatalf("Planes: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Ranks in the same logical column but adjacent tile rows must land
	// on adjacent planes (that is the point of the Figure 1 mapping).
	ly := 6
	for j := 0; j < ly; j++ {
		a := m.Coords[1*ly+j] // logical row 1, last row of tile row 0
		b := m.Coords[2*ly+j] // logical row 2, first row of tile row 1
		if dz := wrapDist(a.Z, b.Z, tor.DZ); dz != 1 {
			t.Errorf("column %d: tile-adjacent rows on planes %d,%d (dz=%d), want adjacent",
				j, a.Z, b.Z, dz)
		}
	}
	// Ranks inside one tile stay on one plane.
	if m.Coords[0].Z != m.Coords[1].Z || m.Coords[0].Z != m.Coords[ly].Z {
		t.Error("ranks of one tile not coplanar")
	}
}

func TestPlanesMappingErrors(t *testing.T) {
	tor := Torus{DX: 3, DY: 2, DZ: 4}
	if _, err := Planes(tor, 5, 6); err == nil {
		t.Error("expected tiling error for 5x6 on 3x2 tiles")
	}
	if _, err := Planes(tor, 4, 3); err == nil {
		t.Error("expected tiling error for 4x3 on width-3 tiles")
	}
	if _, err := Planes(Torus{DX: 3, DY: 2, DZ: 5}, 4, 6); err == nil {
		t.Error("expected plane-count mismatch error")
	}
	if _, err := Planes(tor, 0, 6); err == nil {
		t.Error("expected error for non-positive logical array")
	}
}

func TestPlanesExpandCheaperThanRowMajor(t *testing.T) {
	// The Figure 1 mapping exists to make column (expand) communication
	// local: total hop count over all column pairs should not exceed the
	// row-major placement's.
	lx, ly := 8, 8
	tor := Torus{DX: 4, DY: 4, DZ: 4}
	planes, err := Planes(tor, lx, ly)
	if err != nil {
		t.Fatalf("Planes: %v", err)
	}
	rowMajor, err := RowMajor(tor, lx*ly)
	if err != nil {
		t.Fatalf("RowMajor: %v", err)
	}
	colHops := func(m *Mapping) int {
		total := 0
		for j := 0; j < ly; j++ {
			for i1 := 0; i1 < lx; i1++ {
				for i2 := 0; i2 < lx; i2++ {
					if i1 != i2 {
						total += m.Hops(i1*ly+j, i2*ly+j)
					}
				}
			}
		}
		return total
	}
	if ph, rh := colHops(planes), colHops(rowMajor); ph > rh {
		t.Errorf("planes mapping column hops %d > row-major %d", ph, rh)
	}
}

func TestFitTorus(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 16, 64, 100, 256, 400, 1000} {
		tor := FitTorus(p)
		if tor.Nodes() < p {
			t.Errorf("FitTorus(%d) = %v holds only %d nodes", p, tor, tor.Nodes())
		}
		if tor.Nodes() > 2*p && p > 2 {
			t.Errorf("FitTorus(%d) = %v wastes too much (%d nodes)", p, tor, tor.Nodes())
		}
	}
	if FitTorus(0).Nodes() != 1 {
		t.Error("FitTorus(0) should degenerate to a single node")
	}
}

func TestBisection(t *testing.T) {
	if got := (Torus{DX: 8, DY: 4, DZ: 4}).Bisection(); got != 32 {
		t.Errorf("Bisection 8x4x4 = %d, want 32", got)
	}
	if got := (Torus{DX: 2, DY: 1, DZ: 1}).Bisection(); got != 2 {
		t.Errorf("Bisection 2x1x1 = %d, want 2", got)
	}
}

func TestCostModelTransit(t *testing.T) {
	m := PresetBlueGeneL()
	zero := m.Transit(0, 0)
	if zero != 0 {
		t.Errorf("Transit(0,0) = %g, want 0", zero)
	}
	// Monotone in both arguments.
	if m.Transit(2, 100) <= m.Transit(1, 100) {
		t.Error("Transit not monotone in hops")
	}
	if m.Transit(1, 200) <= m.Transit(1, 100) {
		t.Error("Transit not monotone in bytes")
	}
	c := PresetCluster()
	if c.Transit(5, 0) != 0 {
		t.Error("cluster preset should be hop-insensitive")
	}
}

func TestHopsQuick(t *testing.T) {
	tor := Torus{DX: 7, DY: 5, DZ: 3}
	f := func(ax, ay, az, bx, by, bz uint8) bool {
		a := Coord{int(ax) % tor.DX, int(ay) % tor.DY, int(az) % tor.DZ}
		b := Coord{int(bx) % tor.DX, int(by) % tor.DY, int(bz) % tor.DZ}
		h := tor.Hops(a, b)
		maxH := tor.DX/2 + tor.DY/2 + tor.DZ/2
		return h >= 0 && h <= maxH && h == tor.Hops(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLinkIDs: every link a route crosses, on every ordered rank pair,
// gets an id below 6 × Nodes() that no other link shares, over mappings
// that exercise wraparound, a ring, unused torus nodes, the Figure 1
// plane tiling and size-2 dimensions, where stepping + or − from a node
// reaches the same neighbour over one link and so one id.
func TestLinkIDs(t *testing.T) {
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
			tor := tc.m.Torus
			type link struct{ from, to Coord }
			ids := map[int]link{}
			check := func(l link) {
				id := tor.LinkID(l.from, l.to)
				if id < 0 || id >= 6*tor.Nodes() {
					t.Fatalf("link %v→%v: id %d outside [0, %d)", l.from, l.to, id, 6*tor.Nodes())
				}
				if prev, ok := ids[id]; ok && prev != l {
					t.Fatalf("links %v→%v and %v→%v share id %d", prev.from, prev.to, l.from, l.to, id)
				}
				ids[id] = l
			}
			var path []Coord
			for src := 0; src < tc.p; src++ {
				for dst := 0; dst < tc.p; dst++ {
					path = tor.Route(path[:0], tc.m.Coords[src], tc.m.Coords[dst])
					if len(path)-1 != tc.m.Hops(src, dst) {
						t.Fatalf("%d→%d: Route crosses %d links, Hops says %d", src, dst, len(path)-1, tc.m.Hops(src, dst))
					}
					for i := 1; i < len(path); i++ {
						check(link{path[i-1], path[i]})
					}
				}
			}
			// Every node's neighbour links, stepped both ways in each
			// dimension: equal neighbours must give equal ids (size 2),
			// distinct ones distinct ids.
			dims := [3]int{tor.DX, tor.DY, tor.DZ}
			step := func(c Coord, dim, by int) Coord {
				v := [3]int{c.X, c.Y, c.Z}
				v[dim] = (v[dim] + by + dims[dim]) % dims[dim]
				return Coord{v[0], v[1], v[2]}
			}
			for x := 0; x < tor.DX; x++ {
				for y := 0; y < tor.DY; y++ {
					for z := 0; z < tor.DZ; z++ {
						from := Coord{x, y, z}
						for dim, d := range dims {
							if d == 1 {
								continue
							}
							plus, minus := step(from, dim, 1), step(from, dim, -1)
							check(link{from, plus})
							check(link{from, minus})
							if (plus == minus) != (tor.LinkID(from, plus) == tor.LinkID(from, minus)) {
								t.Fatalf("%v: + neighbour %v and − neighbour %v in a dimension of size %d, ids %d and %d",
									from, plus, minus, d, tor.LinkID(from, plus), tor.LinkID(from, minus))
							}
						}
					}
				}
			}
		})
	}
}
