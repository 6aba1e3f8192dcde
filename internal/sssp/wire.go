package sssp

import (
	"repro/internal/frontier"
	"repro/internal/pool"
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

// encodeRequests packs a deduplicated request batch drawn from the
// destination's owned universe [lo, lo+n).
func encodeRequests(p *pool.Pool, vs, ds []uint32, lo uint32, n int, mode frontier.WireMode, h *frontier.ContainerHist) []uint32 {
	if len(vs) == 0 {
		return nil
	}
	enc := frontier.EncodeSetStatsPar(p, vs, lo, n, mode, h)
	out := make([]uint32, 0, 1+len(enc)+len(ds))
	out = append(out, uint32(len(enc)))
	out = append(out, enc...)
	return append(out, ds...)
}

// decodeRequests inverts encodeRequests. The vertex set is decoded into
// the staging vs, whose capacity is reused; the distances alias buf.
func decodeRequests(p *pool.Pool, buf, vs []uint32) (_, ds []uint32) {
	if len(buf) == 0 {
		return vs[:0], nil
	}
	nw := int(buf[0])
	if 1+nw > len(buf) {
		panic("sssp: truncated relax-request payload")
	}
	vs = frontier.AppendDecodePar(p, vs[:0], buf[1:1+nw])
	ds = buf[1+nw:]
	if len(vs) != len(ds) {
		panic("sssp: relax-request set/distance length mismatch")
	}
	return vs, ds
}
