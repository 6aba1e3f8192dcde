package sssp

import (
	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/localindex"
	"repro/internal/pool"
)

// relaxFold is the delivery half of a relaxation round, the same for
// both partitionings and both schedules: min-merge each raw (vertex,
// candidate) request bin ("merged to form N" with a min instead of a
// union), deliver the bins to their owners over the fold group, and
// min-merge what arrives for this rank. Every bin is destined to one
// group member, so its vertices lie in that member's contiguous owned
// range and a localindex.Combiner merges them without a sort; the model
// charges each merge one VertexCost per request that went in, whatever
// way the merge is computed.
//
// It holds the raw bins, the send-side Combiner (retargeted per bin),
// the owner's Combiner that every arrived part streams into as it
// lands, and the merge and decode staging — all allocated once per rank
// per run and reused every round. Only encoded payloads, owned by the
// transport once posted, are allocated fresh.
type relaxFold struct {
	c    *comm.Comm
	g    comm.Group
	opts Options
	pl   *pool.Pool
	hist *frontier.ContainerHist
	// ownedRange is the layout's owned vertex range of a world rank, at
	// most blockSize wide.
	ownedRange       func(worldRank int) (lo, hi graph.Vertex)
	comb, own        *localindex.Combiner
	binV, binD       [][]uint32
	outV, outD, decV []uint32
}

func newRelaxFold(c *comm.Comm, g comm.Group, opts Options, pl *pool.Pool, hist *frontier.ContainerHist,
	blockSize int, ownedRange func(worldRank int) (lo, hi graph.Vertex)) *relaxFold {
	f := &relaxFold{c: c, g: g, opts: opts, pl: pl, hist: hist, ownedRange: ownedRange,
		comb: localindex.NewCombiner(blockSize), own: localindex.NewCombiner(blockSize),
		binV: make([][]uint32, g.Size()), binD: make([][]uint32, g.Size())}
	lo, hi := ownedRange(g.World(g.Me))
	f.own.Reset(uint32(lo), int(hi-lo))
	return f
}

// reset empties the raw bins for the next scan and returns them.
func (f *relaxFold) reset() (binV, binD [][]uint32) {
	for m := range f.binV {
		f.binV[m], f.binD[m] = f.binV[m][:0], f.binD[m][:0]
	}
	return f.binV, f.binD
}

// decode decodes a request payload, the vertex set into the decode
// staging (valid until the next call; the distances alias the payload).
// The 2D engine's expand scan, which is over before the delivery
// begins, stages its arrivals here too.
func (f *relaxFold) decode(buf []uint32) (vs, ds []uint32) {
	f.decV, ds = decodeRequests(f.pl, buf, f.decV)
	return f.decV, ds
}

// deliver runs the request exchange of one round and returns the
// requests destined to this rank, merged to the minimum distance per
// vertex and valid until the next call. The exchanges call prep once
// per member, the self bin included; the overlapped schedule posts each
// bin as soon as it is merged.
func (f *relaxFold) deliver(tag int, rec *epochRec) (rvs, rds []uint32) {
	vertexCost := f.c.Model().VertexCost
	prep := func(m int) []uint32 {
		lo, hi := f.ownedRange(f.g.World(m))
		f.comb.Reset(uint32(lo), int(hi-lo))
		f.comb.AddMin(f.binV[m], f.binD[m])
		var d int
		f.outV, f.outD, d = f.comb.DrainMin(f.outV[:0], f.outD[:0])
		f.c.ChargeItems(len(f.outV)+d, vertexCost)
		if m == f.g.Me {
			f.own.AddMin(f.outV, f.outD) // stays local, unencoded
			return nil
		}
		return encodeRequests(f.pl, f.outV, f.outD, uint32(lo), int(hi-lo), f.opts.Wire, f.hist)
	}
	handle := func(m int, part []uint32) {
		if m != f.g.Me {
			f.own.AddMin(f.decode(part))
		}
	}
	o := collective.Opts{Tag: tag, Chunk: f.opts.ChunkWords, Async: f.opts.Async}
	rec.foldWords = collective.Exchange(f.c, f.g, o, prep, handle).RecvWords

	var d int
	f.outV, f.outD, d = f.own.DrainMin(f.outV[:0], f.outD[:0])
	f.c.ChargeItems(len(f.outV)+d, vertexCost)
	return f.outV, f.outD
}
