package sssp

import (
	"math"
	"math/bits"

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

// Merge min-merges an arrived part's distances into the owner's rows,
// in the set's bit order.
func (requestPayload) Merge(acc []uint32, in *search.Inbox, part []uint32) {
	set, count, _, ds := in.Unframe(part, 0)
	if count != len(ds) {
		panic("sssp: relax-request set/distance length mismatch")
	}
	acc, k := acc[in.Row:], 0
	for wi, x := range set {
		for ; x != 0; x &= x - 1 {
			i := wi*32 + bits.TrailingZeros32(x)
			acc[i] = min(acc[i], ds[k])
			k++
		}
	}
}

// Encode packs a deduplicated request batch drawn from the destination's
// owned universe [lo, lo+n).
func (p requestPayload) Encode(s search.Set, ds []uint32, lo uint32, n int) []uint32 {
	if s.Count == 0 {
		return nil
	}
	return append(search.FrameSet(s, lo, n, p.wire, p.hist, len(ds)), ds...)
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
