package collective

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/localindex"
)

// AllToAllBruck performs the same personalized exchange as AllToAll
// using Bruck's algorithm: ceil(log2 G) rounds instead of G-1 pairwise
// steps, at the price of each payload traveling up to log2 G hops.
// On the torus this trades bandwidth for latency and is the classic
// choice for the short-message regime (cf. the paper's reference to
// Suh & Shin's personalized all-to-all on tori).
//
// With o.Codec set, the codec lives inside the exchange: each bundled
// block is container-encoded once — at the first hop that ships it,
// against its final destination's universe — then rides every further
// hop in encoded form and is decoded only at the destination. Bundles
// therefore never ship raw sets, and every multi-hop retransmission
// moves the compressed words.
//
// send[i] goes to group member i; out[i] is the payload from member i.
func AllToAllBruck(c *comm.Comm, g comm.Group, o Opts, send [][]uint32) ([][]uint32, Stats) {
	size := g.Size()
	if len(send) != size {
		panic(fmt.Sprintf("collective: AllToAllBruck needs %d send buffers, got %d", size, len(send)))
	}
	var st Stats
	out := make([][]uint32, size)
	out[g.Me] = send[g.Me]
	if size == 1 {
		return out, st
	}
	tr := begin(c, "bruck")

	// Phase 1 (local rotation): block j carries the payload destined to
	// relative rank j, i.e. absolute member (me + j) mod size.
	blocks := make([][]uint32, size)
	for j := 0; j < size; j++ {
		blocks[j] = send[(g.Me+j)%size]
	}
	encoded := make([]bool, size)

	// Phase 2 (log rounds): for each bit, ship every block whose
	// relative index has that bit set to the member 2^bit ahead; the
	// payload hops closer to its destination each round it is shipped.
	// A block's first shipping round is its lowest set bit, before the
	// block has moved, so its destination is still (me + j) mod size —
	// the moment it is container-encoded.
	rnd := 0
	for step := 1; step < size; step <<= 1 {
		rndDone := round(c, rnd)
		var idxs []int
		for j := 1; j < size; j++ {
			if j&step != 0 {
				idxs = append(idxs, j)
			}
		}
		bundle := make([][]uint32, len(idxs))
		for bi, j := range idxs {
			if o.Codec != nil && !encoded[j] {
				blocks[j] = o.Codec.Enc((g.Me+j)%size, blocks[j])
				encoded[j] = true
			}
			bundle[bi] = blocks[j]
		}
		to := g.World((g.Me + step) % size)
		from := g.World((g.Me - step + size) % size)
		c.SendChunked(to, o.Tag+rnd, encodeBundle(bundle), o.Chunk)
		buf := c.RecvChunked(from, o.Tag+rnd, o.Chunk)
		st.RecvWords += len(buf)
		incoming := decodeBundle(buf, len(idxs))
		for bi, j := range idxs {
			blocks[j] = incoming[bi]
			encoded[j] = true // arrived encoded (if a codec is in play)
		}
		rnd++
		rndDone()
	}

	// Phase 3 (inverse placement): block j now holds the payload that
	// originated at member (me - j) mod size and is destined to me.
	for j := 1; j < size; j++ {
		src := (g.Me - j + size) % size
		block := blocks[j]
		if o.Codec != nil {
			block = o.Codec.Dec(g.Me, block)
		}
		out[src] = block
	}
	end(tr, &st)
	return out, st
}

// ReduceScatterUnionBruck folds with Bruck's exchange followed by a
// local union — fewer, longer messages than the direct reduce-scatter.
// The codec (if any) is applied inside AllToAllBruck, where bundled
// blocks compress once and stay compressed across hops.
func ReduceScatterUnionBruck(c *comm.Comm, g comm.Group, o Opts, send [][]uint32) ([]uint32, Stats) {
	parts, st := AllToAllBruck(c, g, o, send)
	acc := append([]uint32(nil), parts[g.Me]...)
	for i, p := range parts {
		if i == g.Me {
			continue
		}
		var d int
		acc, d = localindex.UnionInto(acc, p)
		st.Dups += d
	}
	return acc, st
}
