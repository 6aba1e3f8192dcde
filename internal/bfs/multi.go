package bfs

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/localindex"
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

func (lanePayload) Add(cb *localindex.Combiner, vs []uint32, ms []uint64) { cb.AddOr(vs, ms) }

func (lanePayload) Drain(cb *localindex.Combiner, vs []uint32, ms []uint64) ([]uint32, []uint64, int) {
	return cb.DrainOr(vs, ms)
}

// Encode packs a deduplicated (vertex, mask) batch drawn from the
// destination's owned universe [lo, lo+n).
func (p lanePayload) Encode(vs []uint32, ms []uint64, lo uint32, n int) []uint32 {
	if len(vs) == 0 {
		return nil
	}
	s := len(vs)
	wInter := s * maskWords(p.b)
	wPlane := p.b * frontier.BitWords(s)
	if wInter <= wPlane {
		out := search.FrameSet(vs, lo, n, p.wire, p.hist, wInter, laneFormInterleaved)
		for _, m := range ms {
			out = append(out, uint32(m))
			if p.b > 32 {
				out = append(out, uint32(m>>32))
			}
		}
		return out
	}
	out := search.FrameSet(vs, lo, n, p.wire, p.hist, wPlane, laneFormPlanes)
	planes := make([]uint32, wPlane)
	pw := frontier.BitWords(s)
	for i, m := range ms {
		for mm := m; mm != 0; mm &= mm - 1 {
			lane := bits.TrailingZeros64(mm)
			planes[lane*pw+i/32] |= 1 << (i % 32)
		}
	}
	return append(out, planes...)
}

// Decode inverts Encode. vs and ms are staging whose capacity is reused
// for the decoded batch; neither result aliases buf.
func (p lanePayload) Decode(buf, vs []uint32, ms []uint64) ([]uint32, []uint64) {
	if len(buf) == 0 {
		return vs[:0], ms[:0]
	}
	vs, form, rest := search.UnframeSet(buf, vs, 1)
	s := len(vs)
	ms = slices.Grow(ms[:0], s)[:s]
	switch form[0] {
	case laneFormInterleaved:
		w := maskWords(p.b)
		if len(rest) != s*w {
			panic("bfs: lane payload set/mask length mismatch")
		}
		for i := range ms {
			ms[i] = uint64(rest[i*w])
			if w > 1 {
				ms[i] |= uint64(rest[i*w+1]) << 32
			}
		}
	case laneFormPlanes:
		pw := frontier.BitWords(s)
		if len(rest) != p.b*pw {
			panic("bfs: lane payload plane length mismatch")
		}
		clear(ms)
		for lane := 0; lane < p.b; lane++ {
			plane := rest[lane*pw : (lane+1)*pw]
			frontier.IterateBits(plane, func(i uint32) { ms[i] |= 1 << uint(lane) })
		}
	default:
		panic("bfs: unknown lane mask form")
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
