package torus

// Link is one directed torus link, named by its endpoints. Two
// directions that reach the same neighbor (a dimension of size 2) are
// one link.
type Link struct {
	From, To Coord
}

// RouteTable holds the dimension-ordered route of every ordered rank
// pair of a mapping as a list of link indices, computed once so the
// per-message link accounting in package comm indexes instead of
// re-deriving (and allocating) the path. Links are numbered in order of
// first appearance over the (src, dst) pairs in row-major order, so the
// numbering is a pure function of the mapping. Memory is O(P^2 x hops).
type RouteTable struct {
	p     int
	off   []int32 // off[src*p+dst] .. off[src*p+dst+1] indexes hops
	hops  []int32 // link indices, route after route
	links []Link
	ids   map[Link]int32
}

// NewRouteTable routes every ordered pair of m's first p ranks.
func NewRouteTable(m *Mapping, p int) *RouteTable {
	rt := &RouteTable{p: p, off: make([]int32, p*p+1), ids: make(map[Link]int32)}
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			path := m.Torus.Route(m.Coords[src], m.Coords[dst])
			for i := 1; i < len(path); i++ {
				l := Link{path[i-1], path[i]}
				id, ok := rt.ids[l]
				if !ok {
					id = int32(len(rt.links))
					rt.ids[l] = id
					rt.links = append(rt.links, l)
				}
				rt.hops = append(rt.hops, id)
			}
			rt.off[src*p+dst+1] = int32(len(rt.hops))
		}
	}
	return rt
}

// Route returns the link indices a message from rank src to rank dst
// crosses, in order. The slice aliases the table; do not modify it.
func (rt *RouteTable) Route(src, dst int) []int32 {
	i := src*rt.p + dst
	return rt.hops[rt.off[i]:rt.off[i+1]]
}

// NumLinks returns how many distinct directed links the routes use;
// link indices are in [0, NumLinks).
func (rt *RouteTable) NumLinks() int { return len(rt.links) }

// Link returns the endpoints of link id.
func (rt *RouteTable) Link(id int) Link { return rt.links[id] }

// LinkID returns the index of the link from → to, if any route uses it.
func (rt *RouteTable) LinkID(from, to Coord) (int, bool) {
	id, ok := rt.ids[Link{from, to}]
	return int(id), ok
}
