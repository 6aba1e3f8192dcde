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
// (Store2D.RowIdx), so a set is read off the marks in order; without it
// a localindex.Combiner merges the raw bins without a sort. The scratch
// is allocated once per rank per run; the folds encode or copy what they
// send (collective.wireSet), so nothing here is ever handed to comm. The
// model charges each merge one VertexCost per id that went in,
// len(out)+absorbed, however it is computed.

// setBins is one rank's union-form combine scratch and the fold that
// consumes it: the folding side's row marks, or the raw per-member
// neighbor bins a level's scan fills (raw.V, no values) and the
// Combiner that turns each into a sorted set.
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

// set returns (and charges) the sorted set destined to member m. With
// the cache it is member m's rows the level's scan reached that were
// never sent, read off seen &^ sent in vertex order; they join sent, and
// seen is cleared for the next level. Without it, raw bin m merged by
// the Combiner. Either way the set is built over bin m's own memory, so
// it is valid only until the next scan — long enough for the fold, which
// is done with its input sets when it returns. set is a collective.Prep,
// which the folds call once per member; under the overlapped schedule
// that is the moment the set is needed for posting, so the early sets'
// transfers fly while the later ones are built.
func (b *setBins) set(m int) []uint32 {
	lo, hi := b.l.OwnedRange(b.g.World(m))
	if b.sent == nil {
		b.comb.Reset(uint32(lo), int(hi-lo))
		b.comb.Add(b.raw.V[m])
		set, d := b.comb.Drain(b.raw.V[m][:0])
		b.raw.V[m] = set[:0]
		b.c.ChargeItems(len(set)+d, b.c.Model().VertexCost)
		return set
	}
	span := len(b.sent) / b.g.Size()
	sent, seen := b.sent[m*span:(m+1)*span], b.seen[m*span:(m+1)*span]
	set := b.raw.V[m][:0]
	for i, x := range seen {
		if x == 0 {
			continue
		}
		fresh := x &^ sent[i]
		sent[i] |= x
		seen[i] = 0
		for base := uint32(lo) + uint32(i)*64; fresh != 0; fresh &= fresh - 1 {
			set = append(set, base+uint32(bits.TrailingZeros64(fresh)))
		}
	}
	b.raw.V[m] = set[:0]
	b.c.ChargeItems(len(set), b.c.Model().VertexCost)
	return set
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
	nbar, st := collective.Fold(b.c, b.g, o, b.opts.Fold.String(), b.set)
	rec.FoldWords, rec.dups = st.RecvWords, st.Dups
	b.c.ChargeItems(len(nbar), b.c.Model().VertexCost)
	return nbar
}
