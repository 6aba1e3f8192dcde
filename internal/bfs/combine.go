package bfs

import (
	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/localindex"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/search"
)

// The combine step — Algorithm 2's neighbors "merged to form N" before
// the fold, and merged again at the owner — of a single-source search
// (value-carrying vertices share search.Fold). Every bin is destined to
// one member of the fold group, so its ids lie in that member's
// contiguous owned range and a localindex.Combiner merges them without
// a sort. The scratch is allocated once per rank per run; the folds
// encode or copy what they send (collective.wireSet), so nothing here is
// ever handed to comm. The model charges each merge one VertexCost per
// id that went in, len(out)+absorbed, however it is computed.

// setBins is one rank's union-form combine scratch and the fold that
// consumes it: the raw per-member neighbor bins a level's scan fills
// (raw.V, no values) and the Combiner that turns each into a sorted set.
type setBins struct {
	c *comm.Comm
	g comm.Group // the fold group; bin m is destined to member m
	// l is the layout; a member's owned range is at most l.BlockSize wide.
	l    partition.View
	opts *Options
	pl   *pool.Pool
	hist *frontier.ContainerHist
	comb *localindex.Combiner
	raw  search.Bins[struct{}]
}

func newSetBins(c *comm.Comm, g comm.Group, l partition.View, opts *Options, p *pool.Pool, h *frontier.ContainerHist) *setBins {
	return &setBins{c: c, g: g, l: l, opts: opts, pl: p, hist: h,
		comb: localindex.NewCombiner(l.BlockSize), raw: search.Bins[struct{}]{V: make([][]uint32, g.Size())}}
}

// set merges (and charges) raw bin m into its sorted set and empties
// the bin for the next scan. Once the Combiner holds the bin's ids the
// set is drained over the bin's own memory, so it is valid only until
// that scan — long enough for the fold, which is done with its input
// sets when it returns. set is a collective.Prep, which the folds call
// once per member; under the overlapped schedule that is the moment the
// bin is needed for posting, so the early bins' transfers fly while the
// later bins are merged.
func (b *setBins) set(m int) []uint32 {
	lo, hi := b.l.OwnedRange(b.g.World(m))
	b.comb.Reset(uint32(lo), int(hi-lo))
	b.comb.Add(b.raw.V[m])
	set, d := b.comb.Drain(b.raw.V[m][:0])
	b.raw.V[m] = set[:0]
	b.c.ChargeItems(len(set)+d, b.c.Model().VertexCost)
	return set
}

// fold is the tail every top-down level shares once its scan has filled
// the bins (Algorithm 1 steps 8–13, Algorithm 2 steps 13–18): merge
// them, deliver the sets to their owners with the configured collective
// under the configured schedule, and return the sorted set N̄ of owned
// vertices to mark, its handling charged.
func (b *setBins) fold(tag int, rec *rankLevel) []uint32 {
	o := collective.Opts{Tag: tag, Chunk: b.opts.ChunkWords, Async: b.opts.Async}
	o.Codec = foldCodec(b.c.Tracer(), b.pl, b.opts.Wire, b.g, b.l, b.hist)
	nbar, st := collective.Fold(b.c, b.g, o, b.opts.Fold.String(), b.set)
	rec.FoldWords, rec.dups = st.RecvWords, st.Dups
	b.c.ChargeItems(len(nbar), b.c.Model().VertexCost)
	return nbar
}
