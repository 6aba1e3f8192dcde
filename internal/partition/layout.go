// Package partition implements the 2D (edge) partitioning of §2.2 —
// whose 1 x P and P x 1 meshes are the two 1D partitionings of §2.1 and
// Table 1 — and the per-rank storage of §2.4: blocked vertex ownership,
// partial edge lists indexed only when non-empty, the three global→local
// mappings — block arithmetic for owned vertices, and two the loader
// resolves: a dense index over the block column for received frontier
// vertices, and a local index carried by every edge-list entry for the
// sent-neighbors cache —
// and the per-owned-vertex row-need masks that let the targeted expand
// send a frontier vertex only to ranks actually holding part of its edge
// list. Stores are built once by a centralized loader and are read-only
// afterwards.
package partition

import (
	"fmt"

	"repro/internal/graph"
)

// Layout2D is the R x C two-dimensional partitioning of §2.2. Vertices
// are split into P = R*C contiguous blocks of size ceil(n/P); block b
// is owned by mesh rank (b mod R, b div R), i.e. world rank
// (b mod R)*C + (b div R). The adjacency matrix is split into R*C block
// rows and C block columns; processor (i,j) stores, for every vertex v
// in block column j, the partial edge list {u : (u,v) in E, block(u)
// mod R == i}.
//
// The conventional 1D partitioning of §2.1 is exactly R = 1 (each rank
// stores full edge lists of its owned vertices and communication is a
// single all-to-all, the fold); R x 1 is the row-wise 1D partition the
// paper also measures in Table 1.
type Layout2D struct {
	N    int // vertices
	R, C int // mesh dimensions
	bs   int // block size = ceil(N/P)
}

// NewLayout2D validates and builds a layout.
func NewLayout2D(n, r, c int) (*Layout2D, error) {
	if n <= 0 {
		return nil, fmt.Errorf("partition: n must be positive, got %d", n)
	}
	if r <= 0 || c <= 0 {
		return nil, fmt.Errorf("partition: mesh must be positive, got %dx%d", r, c)
	}
	p := r * c
	bs := (n + p - 1) / p
	return &Layout2D{N: n, R: r, C: c, bs: bs}, nil
}

// P returns the number of ranks R*C.
func (l *Layout2D) P() int { return l.R * l.C }

// BlockSize returns the vertex block size ceil(N/P).
func (l *Layout2D) BlockSize() int { return l.bs }

// BlockOf returns the block index of vertex v.
func (l *Layout2D) BlockOf(v graph.Vertex) int { return int(v) / l.bs }

// OwnerRank returns the world rank owning vertex v.
func (l *Layout2D) OwnerRank(v graph.Vertex) int {
	b := l.BlockOf(v)
	return (b % l.R * l.C) + b/l.R
}

// MeshOf returns the mesh coordinates (i, j) of a world rank.
func (l *Layout2D) MeshOf(rank int) (i, j int) { return rank / l.C, rank % l.C }

// RankAt returns the world rank at mesh position (i, j).
func (l *Layout2D) RankAt(i, j int) int { return i*l.C + j }

// OwnedRange returns [lo, hi) global vertex range owned by rank.
func (l *Layout2D) OwnedRange(rank int) (lo, hi graph.Vertex) { return l.View().OwnedRange(rank) }

// OwnedCount returns the number of vertices owned by rank.
func (l *Layout2D) OwnedCount(rank int) int {
	lo, hi := l.OwnedRange(rank)
	return int(hi - lo)
}

// RowIndexOf returns the mesh row i' of the ranks storing matrix rows
// of vertex u (entries "u appears in an edge list").
func (l *Layout2D) RowIndexOf(u graph.Vertex) int { return l.BlockOf(u) % l.R }

// StoringRank returns the world rank storing matrix entry
// (row u, column v): mesh position (RowIndexOf(u), BlockOf(v) / R), the
// processor column whose ranks store v's edge lists (matrix column).
func (l *Layout2D) StoringRank(u, v graph.Vertex) int {
	return l.RankAt(l.RowIndexOf(u), l.BlockOf(v)/l.R)
}

// View is what a run harness reads of a layout: the vertex count, the
// logical mesh (R = 1 under the 1D vertex partitioning, where rank q
// owns block q) and the block size no owned range exceeds.
type View struct {
	N, R, C   int
	BlockSize int
}

// P returns the number of ranks R*C.
func (v View) P() int { return v.R * v.C }

// OwnedRange returns the [lo, hi) global vertex range owned by rank:
// block j*R + i for the rank at mesh position (i, j), clipped to N.
func (v View) OwnedRange(rank int) (lo, hi graph.Vertex) {
	start := min((rank%v.C*v.R+rank/v.C)*v.BlockSize, v.N)
	return graph.Vertex(start), graph.Vertex(min(start+v.BlockSize, v.N))
}

// View returns the harness's view of the layout.
func (l *Layout2D) View() View { return View{N: l.N, R: l.R, C: l.C, BlockSize: l.bs} }
