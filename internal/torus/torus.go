// Package torus models the BlueGene/L 3D torus interconnect: node
// coordinates, wraparound hop distances, dimension-ordered routing, the
// task mapping of a 2D logical processor array onto torus planes
// (Figure 1 of the paper), and a LogGP-style communication/computation
// cost model used to drive the simulated clocks in package comm.
//
// The real machine was a 64x32x32 torus of 65,536 compute nodes with
// 1.4 Gbit/s links per direction. This package reproduces the geometry
// and charges deterministic costs; it does not move bytes itself.
package torus

import "fmt"

// Coord is a node position on the 3D torus.
type Coord struct {
	X, Y, Z int
}

// Torus describes a 3D torus of DX*DY*DZ nodes with wraparound links in
// every dimension.
type Torus struct {
	DX, DY, DZ int
}

// Nodes returns the total number of nodes on the torus.
func (t Torus) Nodes() int { return t.DX * t.DY * t.DZ }

// Contains reports whether c is a valid coordinate on the torus.
func (t Torus) Contains(c Coord) bool {
	return c.X >= 0 && c.X < t.DX && c.Y >= 0 && c.Y < t.DY && c.Z >= 0 && c.Z < t.DZ
}

// wrapDist returns the hop distance between a and b along one dimension
// of size d, taking the wraparound link when it is shorter.
func wrapDist(a, b, d int) int {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if wrap := d - diff; wrap < diff {
		return wrap
	}
	return diff
}

// Hops returns the minimal hop count between two coordinates under
// dimension-ordered routing (the routing is minimal in each dimension,
// so the hop count equals the wraparound Manhattan distance).
func (t Torus) Hops(a, b Coord) int {
	return wrapDist(a.X, b.X, t.DX) + wrapDist(a.Y, b.Y, t.DY) + wrapDist(a.Z, b.Z, t.DZ)
}

// Route appends to path the coordinates that dimension-ordered (X,
// then Y, then Z) minimal routing visits from a to b, both endpoints
// included, and returns the extended slice. Each step is one hop the
// shorter way round its dimension, the + way on a tie, and each pair of
// consecutive coordinates is one directed link (see LinkID). Passing a
// reused buffer as path[:0] makes a walk allocation-free.
func (t Torus) Route(path []Coord, a, b Coord) []Coord {
	path = append(path, a)
	cur := a
	step := func(cur, dst, d int) int {
		if cur == dst {
			return cur
		}
		fwd := dst - cur
		if fwd < 0 {
			fwd += d
		}
		// fwd hops going +1, d-fwd hops going -1; take the shorter way.
		if fwd <= d-fwd {
			return (cur + 1) % d
		}
		return (cur - 1 + d) % d
	}
	for cur.X != b.X {
		cur.X = step(cur.X, b.X, t.DX)
		path = append(path, cur)
	}
	for cur.Y != b.Y {
		cur.Y = step(cur.Y, b.Y, t.DY)
		path = append(path, cur)
	}
	for cur.Z != b.Z {
		cur.Z = step(cur.Z, b.Z, t.DZ)
		path = append(path, cur)
	}
	return path
}

// LinkID numbers the directed link from a node to its neighbour to:
// node × 6 + direction, where node is from's row-major index (X
// fastest) and the directions are +X, −X, +Y, −Y, +Z, −Z in that order,
// so every id is below 6 × Nodes(). In a dimension of size 2 the + and
// − neighbours are one node over one link, which gets the + id.
func (t Torus) LinkID(from, to Coord) int {
	var dir int
	switch {
	case from.X != to.X:
		dir = hopDir(from.X, to.X, t.DX)
	case from.Y != to.Y:
		dir = 2 + hopDir(from.Y, to.Y, t.DY)
	default:
		dir = 4 + hopDir(from.Z, to.Z, t.DZ)
	}
	return 6*(from.X+t.DX*(from.Y+t.DY*from.Z)) + dir
}

// hopDir is 0 when b is a's + neighbour in a dimension of size d and 1
// when it is only the − neighbour.
func hopDir(a, b, d int) int {
	if b == (a+1)%d {
		return 0
	}
	return 1
}

// Bisection returns the number of links crossing the smallest bisection
// of the torus (cut perpendicular to the longest dimension; two links
// per node pair because of wraparound).
func (t Torus) Bisection() int {
	maxDim := t.DX
	area := t.DY * t.DZ
	if t.DY > maxDim {
		maxDim = t.DY
		area = t.DX * t.DZ
	}
	if t.DZ > maxDim {
		area = t.DX * t.DY
	}
	if maxDim <= 2 {
		// Wraparound degenerates: every "cut" link is also a direct link.
		return area * maxDim / 2 * 2
	}
	return 2 * area
}

func (t Torus) String() string {
	return fmt.Sprintf("%dx%dx%d torus", t.DX, t.DY, t.DZ)
}
