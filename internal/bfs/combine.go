package bfs

import (
	"math/bits"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/localindex"
	"repro/internal/partition"
	"repro/internal/search"
)

// The combine step — Algorithm 2's neighbors "merged to form N" before
// the fold, and merged again at the owner — of a single-source search
// (value-carrying vertices share search.Fold). Every set is destined to
// one member of the fold group, so its ids lie in that member's
// contiguous owned range. With the sent-neighbors cache the scan marks
// row bits, which are numbered by position within each member's range
// (Store2D.RowIdx), so a set is read off the marks in order, sized by
// their popcount and written straight where the fold reads it — most
// often the buffer it hands the transport; without it a
// localindex.Combiner merges the raw bins without a sort. The scratch is
// allocated once per rank per run. The model charges each merge one
// VertexCost per id that went in, len(out)+absorbed, however it is
// computed.

// setBins is one rank's union-form combine scratch and the fold that
// consumes it: the folding side's row marks, or the raw per-member
// neighbor bins a level's scan fills (raw.V, no values) and the
// Combiner that turns each into a sorted set. It is the fold's
// collective.Sets.
type setBins struct {
	c *comm.Comm
	g comm.Group // the fold group; bin m is destined to member m
	// l is the layout; a member's owned range is at most l.BlockSize wide.
	l    partition.View
	opts *Options
	hist *frontier.ContainerHist
	comb *localindex.Combiner
	raw  search.Bins[struct{}]
	// sent and seen are the folding side's (sideState), each member's
	// rows an equal run of their words.
	sent, seen []uint64
}

func newSetBins(c *comm.Comm, g comm.Group, l partition.View, opts *Options, h *frontier.ContainerHist) *setBins {
	return &setBins{c: c, g: g, l: l, opts: opts, hist: h,
		comb: localindex.NewCombiner(l.BlockSize), raw: search.Bins[struct{}]{V: make([][]uint32, g.Size())}}
}

// rows returns member m's words of the sent and seen marks.
func (b *setBins) rows(m int) (sent, seen []uint64) {
	span := len(b.sent) / b.g.Size()
	return b.sent[m*span : (m+1)*span], b.seen[m*span : (m+1)*span]
}

// Len makes, and charges, the sorted set destined to member m and
// returns its size. With the cache it is member m's rows the level's
// scan reached that were never sent, seen &^ sent, counted here and
// read off by Append. Without it, raw bin m merged by the Combiner into
// the bin's own memory, valid until the next scan. The folds call Len
// once per member where the set is needed — under the overlapped direct
// fold the moment it is posted, so the early sets' transfers fly while
// the later ones are made.
func (b *setBins) Len(m int) int {
	if b.sent == nil {
		lo, hi := b.l.OwnedRange(b.g.World(m))
		b.comb.Reset(uint32(lo), int(hi-lo))
		b.comb.Add(b.raw.V[m])
		set, d := b.comb.Drain(b.raw.V[m][:0])
		b.raw.V[m] = set
		b.c.ChargeItems(len(set)+d, b.c.Model().VertexCost)
		return len(set)
	}
	sent, seen := b.rows(m)
	n := 0
	for i, x := range seen {
		n += bits.OnesCount64(x &^ sent[i])
	}
	b.c.ChargeItems(n, b.c.Model().VertexCost)
	return n
}

// Append appends member m's set to dst in vertex order. With the cache
// its ids join sent, and seen is cleared for the next level.
func (b *setBins) Append(dst []uint32, m int) []uint32 {
	if b.sent == nil {
		return append(dst, b.raw.V[m]...)
	}
	lo, _ := b.l.OwnedRange(b.g.World(m))
	sent, seen := b.rows(m)
	for i, x := range seen {
		if x == 0 {
			continue
		}
		fresh := x &^ sent[i]
		sent[i] |= x
		seen[i] = 0
		for base := uint32(lo) + uint32(i)*64; fresh != 0; fresh &= fresh - 1 {
			dst = append(dst, base+uint32(bits.TrailingZeros64(fresh)))
		}
	}
	return dst
}

// fold is the tail every top-down level of side s shares once its scan
// has marked the rows or filled the bins (Algorithm 1 steps 8–13,
// Algorithm 2 steps 13–18): make the sets, deliver them to their owners
// with the configured collective under the configured schedule, and
// return the sorted set N̄ of owned vertices to mark, its handling
// charged.
func (b *setBins) fold(s *sideState, tag int, rec *rankLevel) []uint32 {
	b.sent, b.seen = s.sent, s.seen
	o := collective.Opts{Tag: tag, Chunk: b.opts.ChunkWords, Async: b.opts.Async}
	o.Codec = foldCodec(b.c.Tracer(), b.opts.Wire, b.g, b.l, b.hist)
	nbar, st := collective.Fold(b.c, b.g, o, b.opts.Fold.String(), b)
	rec.FoldWords, rec.dups = st.RecvWords, st.Dups
	b.c.ChargeItems(len(nbar), b.c.Model().VertexCost)
	return nbar
}
