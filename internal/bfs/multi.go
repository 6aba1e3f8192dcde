package bfs

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/search"
)

// Batched multi-source BFS: up to MaxLanes sources traverse the graph
// in one level-synchronized sweep sequence, one bit-lane per source
// (the Ligra-style cluster-BFS shape). Every owned vertex carries a
// lane mask of the sources that have reached it; a sweep is the
// top-down level of a side whose frontier is the lane-OR frontier — the
// set of vertices some lane newly reached — except each travelling
// vertex carries its frontier lane mask as its payload and owners label
// per lane (engine2D.step, sideState.mark).
//
// The vertex sets ride the same wire codecs as single-source payloads
// (the lane-OR frontier is what gets list/bitmap/hybrid-encoded); the
// masks follow in decoded set order, as interleaved words or
// transposed lane planes — whichever is fewer words (see the wire
// format below). Because the b searches share one set payload per hop,
// a batch moves fewer words than b independent runs whose frontiers
// overlap.

// MaxLanes is the lane capacity of one multi-source batch: one bit per
// source in a uint64 lane mask.
const MaxLanes = 64

// MultiResult reports a finished batched multi-source BFS. The
// embedded Result carries the shared machinery's statistics — PerLevel
// is per sweep, and Levels[v] is the distance from the *nearest*
// source (the lane minimum) — while LaneLevels separates the b
// independent per-source level arrays.
type MultiResult struct {
	Result
	// B is the lane count (number of sources in the batch).
	B int
	// Sources records the batch, lane i searching from Sources[i].
	Sources []graph.Vertex
	// LaneLevels[i][v] is source i's BFS level of vertex v (Unreached
	// if lane i never labels it) — identical to an independent BFS from
	// Sources[i].
	LaneLevels [][]int32
}

// LaneDistance returns the s→t distance of the lane searching from s —
// the first such lane when s is in the batch twice — or Unreached if t
// was not reached or is not a vertex, or s is not in the batch.
func (r *MultiResult) LaneDistance(s, t graph.Vertex) int32 {
	if i := slices.Index(r.Sources, s); i >= 0 && int(t) < len(r.LaneLevels[i]) {
		return r.LaneLevels[i][t]
	}
	return graph.Unreached
}

// Lane payload wire format, the multi-source counterpart of the SSSP
// relax-request format:
//
//	[setWords, maskForm, encodedSet..., masks...]
//
// The vertex set is ascending and duplicate-free (senders OR-merge the
// masks of duplicate vertices first), so it compresses under every
// frontier wire mode; the lane masks follow in decoded set order in
// whichever of two self-described layouts is fewer words for this
// (batch size, set size) pair:
//
//   - interleaved: ceil(b/32) words per member, member-major — cheap
//     when the set is small relative to the lane count;
//   - planes: b transposed bitmaps of ceil(|set|/32) words, bit p of
//     lane l's plane marking member p — cheap for wide sets of narrow
//     batches (b=8 lanes cost 1/4 word per member instead of 1).
//
// An empty batch is a nil payload. The lane count b is engine state
// (every rank knows the source batch), not payload data.
const (
	laneFormInterleaved = iota
	laneFormPlanes
)

// maskWords returns the interleaved per-member mask width for b lanes.
func maskWords(b int) int { return (b + 31) / 32 }

// lanePayload is the multi-source fold's payload: a 64-bit lane mask
// rides with each vertex, merged by OR and framed as above for the b
// lanes of the batch.
type lanePayload struct {
	b    int
	wire frontier.WireMode
	hist *frontier.ContainerHist
}

func (lanePayload) Identity() uint64 { return 0 }

// Merge ORs an arrived part's masks into the owner's rows, in the set's
// bit order.
func (p lanePayload) Merge(acc []uint64, in *search.Inbox, part []uint32) {
	set, count, form, rest := in.Unframe(part, 1)
	var lm laneMasks
	lm.reset(p.b, form[0], rest, count)
	acc, k := acc[in.Row:], 0
	for wi, x := range set {
		for ; x != 0; x &= x - 1 {
			var m uint64
			if lm.planes {
				m = lm.at(k)
			} else { // lm.at, inlined
				m = uint64(rest[k*lm.w]) | uint64(rest[k*lm.w+lm.w-1])<<32&lm.hi
			}
			acc[wi*32+bits.TrailingZeros32(x)] |= m
			k++
		}
	}
}

// laneMasks reads a payload's lane masks in set order: from the
// interleaved words, or from the planes a tile of 64 members at a time,
// the tile's 64 plane words transposed into its members' masks.
type laneMasks struct {
	b, w, pw int
	hi       uint64 // the second interleaved word's mask: 0 for one-word masks
	planes   bool
	words    []uint32
	tile     [64]uint64
}

// reset checks the mask words of a count-member payload of b lanes.
func (m *laneMasks) reset(b int, form uint32, words []uint32, count int) {
	m.b, m.w, m.pw, m.planes, m.words = b, maskWords(b), frontier.BitWords(count), form == laneFormPlanes, words
	m.hi = ^uint64(0) >> (64 * uint(2-m.w))
	switch {
	case !m.planes && form != laneFormInterleaved:
		panic("bfs: unknown lane mask form")
	case !m.planes && len(words) != count*m.w:
		panic("bfs: lane payload set/mask length mismatch")
	case m.planes && len(words) != b*m.pw:
		panic("bfs: lane payload plane length mismatch")
	}
}

// at returns member k's mask, the members read in order.
func (m *laneMasks) at(k int) uint64 {
	if m.planes {
		if k&63 == 0 {
			m.load(k >> 6)
		}
		return m.tile[k&63]
	}
	return uint64(m.words[k*m.w]) | uint64(m.words[k*m.w+m.w-1])<<32&m.hi
}

// load makes tile t of the planes — members 64t to 64t+63 — current.
func (m *laneMasks) load(t int) {
	for l := range m.tile {
		m.tile[l] = 0
		if l < m.b {
			plane := m.words[l*m.pw : (l+1)*m.pw]
			m.tile[l] = uint64(plane[2*t])
			if 2*t+1 < m.pw {
				m.tile[l] |= uint64(plane[2*t+1]) << 32
			}
		}
	}
	transpose64(&m.tile)
}

// transpose64 transposes the 64 x 64 bit matrix a in place, bit j of
// a[i] to bit i of a[j], swapping the off-diagonal j x j blocks of every
// 2j x 2j diagonal block for j = 32 down to 1 (masked indices spare the
// bounds checks).
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000ffffffff)
	for j := uint(32); j != 0; j, m = j>>1, m^m<<(j>>1) {
		for base := uint(0); base < 64; base += 2 * j {
			for k := base; k < base+j; k++ {
				x, y := a[k&63], a[(k+j)&63]
				t := (x>>(j&63) ^ y) & m
				a[k&63], a[(k+j)&63] = x^t<<(j&63), y^t
			}
		}
	}
}

// Encode packs a deduplicated (vertex, mask) batch drawn from the
// destination's owned universe [lo, lo+n), the masks in set order.
func (p lanePayload) Encode(s search.Set, ms []uint64, lo uint32, n int) []uint32 {
	if s.Count == 0 {
		return nil
	}
	pw := frontier.BitWords(s.Count)
	wInter, wPlane := s.Count*maskWords(p.b), p.b*pw
	if wInter <= wPlane {
		out := search.FrameSet(s, lo, n, p.wire, p.hist, wInter, laneFormInterleaved)
		for _, m := range ms {
			out = append(out, uint32(m))
			if p.b > 32 {
				out = append(out, uint32(m>>32))
			}
		}
		return out
	}
	out := search.FrameSet(s, lo, n, p.wire, p.hist, wPlane, laneFormPlanes)
	at := len(out)
	out = out[:at+wPlane]
	// The planes are ORed into the payload's tail, where the set's encoder
	// may have left words of a hybrid stream it rewrote shorter.
	planes := out[at:]
	clear(planes)
	for i, m := range ms {
		for mm := m; mm != 0; mm &= mm - 1 {
			lane := bits.TrailingZeros64(mm)
			planes[lane*pw+i/32] |= 1 << (i % 32)
		}
	}
	return out
}

// Decode inverts Encode. vs and ms are staging whose capacity is reused
// for the decoded batch; neither result aliases buf.
func (p lanePayload) Decode(buf, vs []uint32, ms []uint64) ([]uint32, []uint64) {
	if len(buf) == 0 {
		return vs[:0], ms[:0]
	}
	vs, form, rest := search.UnframeSet(buf, vs, 1)
	var lm laneMasks
	lm.reset(p.b, form[0], rest, len(vs))
	ms = slices.Grow(ms[:0], len(vs))[:len(vs)]
	for i := range ms {
		ms[i] = lm.at(i)
	}
	return vs, ms
}

// validateSources checks a multi-source batch against the lane
// capacity and the vertex range.
func validateSources(sources []graph.Vertex, n int) error {
	if len(sources) == 0 {
		return fmt.Errorf("bfs: multi-source batch is empty")
	}
	if len(sources) > MaxLanes {
		return fmt.Errorf("bfs: %d sources exceed the %d-lane batch capacity", len(sources), MaxLanes)
	}
	for i, s := range sources {
		if int(s) >= n {
			return fmt.Errorf("bfs: source %d (lane %d) out of range for n=%d", s, i, n)
		}
	}
	return nil
}
