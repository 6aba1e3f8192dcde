package comm

import "fmt"

// Group is an ordered sub-communicator: a list of world ranks plus this
// rank's position in it. The 2D BFS communicates within processor-row
// and processor-column groups (fold and expand respectively, §2.2).
type Group struct {
	Ranks []int // world ranks, in group order
	Me    int   // my index within Ranks
}

// Size returns the number of ranks in the group.
func (g Group) Size() int { return len(g.Ranks) }

// World converts a group index to a world rank.
func (g Group) World(i int) int { return g.Ranks[i] }

// Next returns the group index after i (ring order).
func (g Group) Next(i int) int { return (i + 1) % len(g.Ranks) }

// Prev returns the group index before i (ring order).
func (g Group) Prev(i int) int { return (i - 1 + len(g.Ranks)) % len(g.Ranks) }

// Mesh is the logical R x C processor mesh of the 2D partitioning.
// Rank (i, j) has world id i*C + j; the paper's processor-row i is
// {(i, j') : j'} and processor-column j is {(i', j) : i'}.
type Mesh struct {
	R, C int
}

// NewMesh validates and returns an R x C mesh for P = R*C ranks.
func NewMesh(r, c int) (Mesh, error) {
	if r <= 0 || c <= 0 {
		return Mesh{}, fmt.Errorf("comm: mesh dimensions must be positive, got %dx%d", r, c)
	}
	return Mesh{R: r, C: c}, nil
}

// P returns the total rank count R*C.
func (m Mesh) P() int { return m.R * m.C }

// RowOf returns the mesh row of a world rank.
func (m Mesh) RowOf(rank int) int { return rank / m.C }

// ColOf returns the mesh column of a world rank.
func (m Mesh) ColOf(rank int) int { return rank % m.C }

// RankAt returns the world rank at mesh position (i, j).
func (m Mesh) RankAt(i, j int) int { return i*m.C + j }

// RowGroup returns the processor-row group of the given world rank:
// the C ranks sharing its mesh row, ordered by column. Fold (the
// neighbour exchange) runs in this group.
func (m Mesh) RowGroup(rank int) Group {
	i := m.RowOf(rank)
	g := Group{Ranks: make([]int, m.C)}
	for j := 0; j < m.C; j++ {
		g.Ranks[j] = m.RankAt(i, j)
	}
	g.Me = m.ColOf(rank)
	return g
}

// ColGroup returns the processor-column group of the given world rank:
// the R ranks sharing its mesh column, ordered by row. Expand (the
// frontier broadcast) runs in this group.
func (m Mesh) ColGroup(rank int) Group {
	j := m.ColOf(rank)
	g := Group{Ranks: make([]int, m.R)}
	for i := 0; i < m.R; i++ {
		g.Ranks[i] = m.RankAt(i, j)
	}
	g.Me = m.RowOf(rank)
	return g
}
