package collective

import "repro/internal/comm"

// ReduceScatterOr reduce-scatters wire bitmaps with bitwise OR: send[i]
// is a []uint32 word bitmap destined for group member i, and the result
// is the OR of every bitmap destined to this rank. Payloads destined to
// one member are normally equal-length; stragglers are OR'd into a
// result sized to the longest.
//
// This is the delivery step of the bottom-up BFS direction: each rank's
// parent-found claims over a block of vertices are OR-combined at the
// block's owner, the bitmap analogue of the union fold (a duplicate
// claim costs one bit, not one word, so no Dups are recorded). With
// o.Codec set, each claim bitmap is re-encoded for the wire (hybrid
// chunk containers when sparser than the raw words) and decoded back
// before the OR; RecvWords counts the encoded words.
func ReduceScatterOr(c *comm.Comm, g comm.Group, o Opts, send [][]uint32) ([]uint32, Stats) {
	if o.Codec != nil {
		send = encodeSends(g, o.Codec, send)
	}
	parts, st := AllToAll(c, g, o, send)
	decodeParts(g, o.Codec, parts)
	var acc []uint32
	for _, p := range parts {
		if len(p) > len(acc) {
			grown := make([]uint32, len(p))
			copy(grown, acc)
			acc = grown
		}
		for j, w := range p {
			acc[j] |= w
		}
	}
	return acc, st
}
