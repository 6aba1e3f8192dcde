package torus

import "fmt"

// A Mapping places each of P logical ranks at a coordinate on a torus.
// The BFS layers above only ever ask for hop counts between ranks, so a
// mapping is just the rank -> coordinate table plus its provenance.
type Mapping struct {
	Torus  Torus
	Coords []Coord // Coords[rank]
	Name   string
}

// Hops returns the torus hop distance between two ranks.
func (m *Mapping) Hops(a, b int) int {
	return m.Torus.Hops(m.Coords[a], m.Coords[b])
}

// Validate checks that the mapping is injective and in-bounds.
func (m *Mapping) Validate() error {
	seen := make(map[Coord]int, len(m.Coords))
	for r, c := range m.Coords {
		if !m.Torus.Contains(c) {
			return fmt.Errorf("torus mapping %q: rank %d at %v outside %v", m.Name, r, c, m.Torus)
		}
		if prev, dup := seen[c]; dup {
			return fmt.Errorf("torus mapping %q: ranks %d and %d share coordinate %v", m.Name, prev, r, c)
		}
		seen[c] = r
	}
	return nil
}

// RowMajor maps rank ids onto the torus in plain row-major order
// (X fastest, then Y, then Z). It ignores the logical 2D array structure
// and serves as the baseline for the mapping ablation.
func RowMajor(t Torus, p int) (*Mapping, error) {
	if p > t.Nodes() {
		return nil, fmt.Errorf("torus: %d ranks do not fit on %v", p, t)
	}
	coords := make([]Coord, p)
	for r := 0; r < p; r++ {
		coords[r] = Coord{
			X: r % t.DX,
			Y: (r / t.DX) % t.DY,
			Z: r / (t.DX * t.DY),
		}
	}
	return &Mapping{Torus: t, Coords: coords, Name: "row-major"}, nil
}

// Planes implements the task mapping of Figure 1: an Lx-by-Ly logical
// processor array (Lx = R rows, Ly = C columns; rank = i*Ly + j) is cut
// into wc-by-wr tiles, and each tile becomes one Z-plane of the torus.
// Tiles that are vertically adjacent in the logical array (same tile
// column) land on adjacent physical planes, so the expand operation
// (processor-column communication) runs between neighbouring planes
// while the fold operation (processor-row) runs inside plane-local rows
// spread across plane groups.
//
// wr must divide Lx and wc must divide Ly; the torus must be exactly
// wc x wr x (Lx*Ly)/(wc*wr).
func Planes(t Torus, lx, ly int) (*Mapping, error) {
	if lx <= 0 || ly <= 0 {
		return nil, fmt.Errorf("torus: logical array must be positive, got %dx%d", lx, ly)
	}
	wc, wr := t.DX, t.DY
	if lx%wr != 0 || ly%wc != 0 {
		return nil, fmt.Errorf("torus: %dx%d logical array not tileable by %dx%d planes", lx, ly, wc, wr)
	}
	tilesDown := lx / wr   // tile rows in the logical array
	tilesAcross := ly / wc // tile columns in the logical array
	if tilesDown*tilesAcross != t.DZ {
		return nil, fmt.Errorf("torus: need %d planes for %dx%d array on %dx%d tiles, torus has %d",
			tilesDown*tilesAcross, lx, ly, wc, wr, t.DZ)
	}
	coords := make([]Coord, lx*ly)
	for i := 0; i < lx; i++ {
		for j := 0; j < ly; j++ {
			tileRow, inRow := i/wr, i%wr
			tileCol, inCol := j/wc, j%wc
			// Tiles in the same tile-column occupy consecutive planes so
			// that column (expand) traffic crosses adjacent planes.
			plane := tileCol*tilesDown + tileRow
			coords[i*ly+j] = Coord{X: inCol, Y: inRow, Z: plane}
		}
	}
	return &Mapping{Torus: t, Coords: coords, Name: "planes"}, nil
}

// MeshMapping places the ranks of an r x c logical mesh on the torus
// FitTorus(r*c) picks: with the Figure 1 planes tiling unless rowMajor
// is set or the mesh does not tile that torus, and in row-major order
// otherwise.
func MeshMapping(r, c int, rowMajor bool) (*Mapping, error) {
	t := FitTorus(r * c)
	if !rowMajor {
		if m, err := Planes(t, r, c); err == nil {
			return m, nil
		}
	}
	return RowMajor(t, r*c)
}

// FitTorus picks torus dimensions that hold p nodes, preferring shapes
// close to the BlueGene/L aspect (X twice Y and Z). Used when the caller
// does not specify a torus explicitly.
func FitTorus(p int) Torus {
	if p <= 0 {
		return Torus{DX: 1, DY: 1, DZ: 1}
	}
	// Find dz <= dy <= dx with dx*dy*dz >= p and product minimal,
	// scanning near-cubic factorizations.
	best := Torus{DX: p, DY: 1, DZ: 1}
	bestWaste := best.Nodes() - p
	bestSkew := best.DX - best.DZ
	for dz := 1; dz*dz*dz <= p*4; dz++ {
		for dy := dz; dy*dy <= p*2/dz+1; dy++ {
			dx := (p + dy*dz - 1) / (dy * dz)
			if dx < dy {
				dx = dy
			}
			cand := Torus{DX: dx, DY: dy, DZ: dz}
			waste := cand.Nodes() - p
			skew := cand.DX - cand.DZ
			if waste < bestWaste || (waste == bestWaste && skew < bestSkew) {
				best, bestWaste, bestSkew = cand, waste, skew
			}
		}
	}
	return best
}
