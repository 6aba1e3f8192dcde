package bfs

import (
	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/localindex"
	"repro/internal/pool"
)

// The combine step — Algorithm 2's neighbors "merged to form N" before
// the fold, and merged again at the owner — shared by every engine.
// Every bin is destined to one member of the fold group, so its ids lie
// in that member's contiguous owned range and a localindex.Combiner
// merges them without a sort. The scratch below is allocated once per
// rank per run and reused by every level or sweep: the folds encode or
// copy what they send (collective.wireSet), so nothing here is ever
// handed to comm. The model charges each merge one VertexCost per id
// that went in, len(out)+absorbed, whatever way the merge is computed.

// setBins is one rank's union-form combine scratch: the raw per-member
// neighbor bins a level's scan fills, and the Combiner that turns each
// into the sorted set the fold moves.
type setBins struct {
	c *comm.Comm
	g comm.Group // the fold group; bin m is destined to member m
	// ownedRange is the layout's owned vertex range of a world rank, at
	// most blockSize wide.
	ownedRange func(worldRank int) (lo, hi graph.Vertex)
	comb       *localindex.Combiner
	raw        [][]uint32
}

func newSetBins(c *comm.Comm, g comm.Group, blockSize int, ownedRange func(worldRank int) (lo, hi graph.Vertex)) *setBins {
	return &setBins{c: c, g: g, ownedRange: ownedRange, comb: localindex.NewCombiner(blockSize), raw: make([][]uint32, g.Size())}
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
	lo, hi := b.ownedRange(b.g.World(m))
	b.comb.Reset(uint32(lo), int(hi-lo))
	b.comb.Add(b.raw[m])
	set, d := b.comb.Drain(b.raw[m][:0])
	b.raw[m] = set[:0]
	b.c.ChargeItems(len(set)+d, b.c.Model().VertexCost)
	return set
}

// sets merges every bin, in member order.
func (b *setBins) sets() [][]uint32 {
	out := make([][]uint32, len(b.raw))
	for m := range out {
		out[m] = b.set(m)
	}
	return out
}

// laneFold is the fold half of a lane-parallel sweep, the same for both
// partitionings and both schedules: OR-merge each raw (vertex, mask)
// bin, deliver the bins to their owners over the fold group, and
// OR-merge what arrives for this rank. It holds the raw bins, the
// send-side Combiner (retargeted per bin), the owner's Combiner that
// every arrived part streams into as it lands, and the merge and decode
// staging.
type laneFold struct {
	c    *comm.Comm
	g    comm.Group
	opts Options
	pl   *pool.Pool
	hist *frontier.ContainerHist
	// ownedRange is the layout's owned vertex range of a world rank, at
	// most blockSize wide.
	ownedRange func(worldRank int) (lo, hi graph.Vertex)
	comb, own  *localindex.Combiner
	binV       [][]uint32
	binM       [][]uint64
	outV, decV []uint32
	outM, decM []uint64
}

func newLaneFold(c *comm.Comm, g comm.Group, opts Options, pl *pool.Pool, hist *frontier.ContainerHist,
	blockSize int, ownedRange func(worldRank int) (lo, hi graph.Vertex)) *laneFold {
	f := &laneFold{c: c, g: g, opts: opts, pl: pl, hist: hist, ownedRange: ownedRange,
		comb: localindex.NewCombiner(blockSize), own: localindex.NewCombiner(blockSize),
		binV: make([][]uint32, g.Size()), binM: make([][]uint64, g.Size())}
	lo, hi := ownedRange(g.World(g.Me))
	f.own.Reset(uint32(lo), int(hi-lo))
	return f
}

// reset empties the raw bins for the next scan and returns them.
func (f *laneFold) reset() ([][]uint32, [][]uint64) {
	for m := range f.binV {
		f.binV[m], f.binM[m] = f.binV[m][:0], f.binM[m][:0]
	}
	return f.binV, f.binM
}

// decode decodes a lane payload into the decode staging, valid until
// the next call; the 2D engine's expand scan, which is over before the
// fold begins, stages its arrivals here too.
func (f *laneFold) decode(buf []uint32, b int) ([]uint32, []uint64) {
	f.decV, f.decM = decodeLanes(f.pl, buf, b, f.decV, f.decM)
	return f.decV, f.decM
}

// deliver runs the fold of a b-lane sweep and returns the merged
// (vertex, mask) arrivals owned by this rank, valid until the next
// call. The exchanges call prep once per member, the self bin included;
// the overlapped schedule posts each bin as soon as it is merged.
func (f *laneFold) deliver(b, tag int, rec *rankLevel) ([]uint32, []uint64) {
	vertexCost := f.c.Model().VertexCost
	prep := func(m int) []uint32 {
		lo, hi := f.ownedRange(f.g.World(m))
		f.comb.Reset(uint32(lo), int(hi-lo))
		f.comb.AddOr(f.binV[m], f.binM[m])
		var d int
		f.outV, f.outM, d = f.comb.DrainOr(f.outV[:0], f.outM[:0])
		rec.dups += d
		f.c.ChargeItems(len(f.outV)+d, vertexCost)
		if m == f.g.Me {
			f.own.AddOr(f.outV, f.outM) // stays local, unencoded
			return nil
		}
		return encodeLanes(f.pl, f.outV, f.outM, b, uint32(lo), int(hi-lo), f.opts.Wire, f.hist)
	}
	handle := func(m int, part []uint32) {
		if m != f.g.Me {
			f.own.AddOr(f.decode(part, b))
		}
	}
	o := collective.Opts{Tag: tag, Chunk: f.opts.ChunkWords, Async: f.opts.Async}
	rec.foldWords = collective.Exchange(f.c, f.g, o, prep, handle).RecvWords

	var d int
	f.outV, f.outM, d = f.own.DrainOr(f.outV[:0], f.outM[:0])
	rec.dups += d
	f.c.ChargeItems(len(f.outV)+d, vertexCost)
	return f.outV, f.outM
}
