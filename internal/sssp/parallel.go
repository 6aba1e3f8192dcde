package sssp

import (
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/trace"
)

// relaxGrain is the pool chunk width, in active vertices, for the
// relaxation scans. Chunk boundaries are pure functions of the batch
// length (see internal/pool), so per-chunk request bins concatenate in
// a worker-count-independent order; the downstream min-merge is
// order-insensitive anyway, making the delivered request sets — and
// every count — the same at every pool size.
const relaxGrain = 512

// Each relaxation scan has one chunk body. It runs once over the whole
// batch, appending straight into the fold's raw bins, or per chunk on
// the pool into staged bins that are appended to those in chunk order.

// relaxOut is what a relaxation scan produces: the (neighbor,
// candidate) relax requests binned by destination, the edge entries
// inspected and the hash probes made.
type relaxOut struct {
	binV, binD [][]uint32
	scanned    int
	probes     uint64
}

// collect runs body over the chunks of [0, n) on the pool, each chunk
// into staged bins of its own, and appends those to o in chunk order.
func (o *relaxOut) collect(p *pool.Pool, n int, body func(c *relaxOut, lo, hi int)) {
	nb := len(o.binV)
	outs := pool.Collect(p, n, relaxGrain, func(c *relaxOut, lo, hi int) {
		c.binV, c.binD = make([][]uint32, nb), make([][]uint32, nb)
		body(c, lo, hi)
	})
	for i := range outs {
		c := &outs[i]
		o.scanned += c.scanned
		o.probes += c.probes
		for q := range c.binV {
			o.binV[q] = append(o.binV[q], c.binV[q]...)
			o.binD[q] = append(o.binD[q], c.binD[q]...)
		}
	}
}

// relaxPart scans the partial edge lists of one arrived active batch,
// appending relax requests to the per-column bins, and charges the pair
// handling, edge scan, and hash probes. Both schedules call it once per
// arrived part; with a one-member processor column, once with the
// rank's own active set, which nothing delivered.
func (e *engine2D) relaxPart(avs, ads []uint32, light bool, delta uint32, binV, binD [][]uint32) int {
	tr := e.c.Tracer()
	tr.Begin("engine", "scan")
	out := relaxOut{binV: binV, binD: binD}
	if e.pl.Inline(len(avs), relaxGrain) {
		e.relaxChunk(avs, ads, light, delta, &out)
	} else {
		out.collect(e.pl, len(avs), func(c *relaxOut, lo, hi int) { e.relaxChunk(avs[lo:hi], ads[lo:hi], light, delta, c) })
	}
	if e.colG.Size() > 1 {
		e.c.ChargeItemsPar(len(avs), e.model.VertexCost)
	}
	e.c.ChargeItemsPar(out.scanned, e.model.EdgeCost)
	e.c.ChargeItemsPar(int(out.probes), e.model.HashCost)
	tr.End(trace.Arg{Key: "edges", Val: int64(out.scanned)}, trace.Arg{Key: "probes", Val: int64(out.probes)})
	return out.scanned
}

// relaxChunk is relaxPart's body over the arrived pairs (avs, ads).
func (e *engine2D) relaxChunk(avs, ads []uint32, light bool, delta uint32, o *relaxOut) {
	st := e.st
	l := st.Layout
	var cis [partition.ResolveBatch]uint32
	for len(avs) > 0 {
		n := min(len(avs), len(cis))
		o.probes += st.ResolveColumns(avs[:n], &cis)
		for idx, ci := range cis[:n] {
			if ci == partition.NoColumn {
				continue // no partial list here (possible only locally)
			}
			dv := ads[idx]
			for i := st.Off[ci]; i < st.Off[ci+1]; i++ {
				o.scanned++
				w := e.weightAt(i)
				if (w <= delta) != light {
					continue
				}
				cand := dv + w
				if cand < dv || cand == graph.MaxDist {
					continue // saturated: stays unreachable
				}
				u := st.Rows[i]
				j := l.ColBlockOf(u)
				o.binV[j] = append(o.binV[j], uint32(u))
				o.binD[j] = append(o.binD[j], cand)
			}
		}
		avs, ads = avs[n:], ads[n:]
	}
}
