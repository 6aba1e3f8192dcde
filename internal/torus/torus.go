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

// Route returns the sequence of coordinates visited by dimension-ordered
// (X then Y then Z) minimal routing from a to b, including both
// endpoints. It is used by tests and by link-contention accounting.
func (t Torus) Route(a, b Coord) []Coord {
	path := []Coord{a}
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
