package sssp

import (
	"math"

	"repro/internal/frontier"
	"repro/internal/search"
)

// Relax requests cross the simulated torus as a vertex set plus a
// parallel distance array:
//
//	[setWords, encodedSet..., dists...]
//
// Senders keep only the minimum distance per vertex, so the vertex
// list is ascending and duplicate-free — exactly the payload shape the
// frontier wire codec compresses (raw list, bitmap, or hybrid chunk
// containers by Options.Wire). The distances follow in the decoded
// set's order; the setWords prefix keeps the payload self-describing
// under every mode. An empty request batch is a nil payload.

// requestPayload is the relaxation fold's payload: a tentative distance
// rides with each vertex, merged by min and framed as above.
type requestPayload struct {
	wire frontier.WireMode
	hist *frontier.ContainerHist
}

func (requestPayload) Identity() uint32 { return math.MaxUint32 }

// Merge min-merges an arrived part's distances into the owner's rows.
func (requestPayload) Merge(r *search.Rows, acc []uint32, pairs []uint64, shift uint32, vs, ds []uint32) {
	for i, v := range vs {
		r.Min(acc, pairs, v+shift, ds[i])
	}
}

// Encode packs a deduplicated request batch drawn from the destination's
// owned universe [lo, lo+n).
func (p requestPayload) Encode(vs, ds []uint32, lo uint32, n int) []uint32 {
	if len(vs) == 0 {
		return nil
	}
	return append(search.FrameSet(vs, lo, n, p.wire, p.hist, len(ds)), ds...)
}

// Decode inverts Encode. The vertex set is decoded into the staging vs,
// whose capacity is reused; the distances alias buf, so the staging ds
// is left alone.
func (p requestPayload) Decode(buf, vs, _ []uint32) ([]uint32, []uint32) {
	if len(buf) == 0 {
		return vs[:0], nil
	}
	vs, _, ds := search.UnframeSet(buf, vs, 0)
	if len(vs) != len(ds) {
		panic("sssp: relax-request set/distance length mismatch")
	}
	return vs, ds
}
