package bfs

import (
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/trace"
)

// Intra-rank parallelism grains: pool chunk widths, in loop items, for
// the hot local loops. Boundaries are pure functions of the loop length
// (see internal/pool), so every worker count produces the same ordered
// merge. Frontier scans chunk by frontier vertex (each carrying a full
// or partial edge list); bottom-up scans chunk by owned/column vertex.
const (
	scanGrain  = 512
	ownedGrain = 2048
)

// Every hot loop has one chunk body. It reads the immutable store — a
// received vertex's column through Store2D.ResolveColumns, a scanned
// neighbor's sent-cache index straight from the edge entry — and claims
// through the atomic TestAndSetAtomic / SetBitAtomic, so it is the same
// code whether it runs once over the whole range, appending straight
// into the destination bins, or per chunk on the pool into staged bins
// that are appended to the destination in chunk order. On the pool,
// which worker wins a claimed vertex is scheduler-dependent, but each
// neighbor still lands in its owner's bin at most once, so the sorted
// sets the fold moves — and every count — are the same at every pool
// size.

// scanOut is what a top-down scan produces: the discovered neighbors
// binned by destination (the lane masks alongside under MultiBFS), the
// edge entries inspected and the hash probes made.
type scanOut struct {
	binV    [][]uint32
	binM    [][]uint64
	scanned int
	probes  uint64
}

// collect runs body over the chunks of [0, n) on the pool, each chunk
// into staged bins of its own, and appends those to o in chunk order.
func (o *scanOut) collect(p *pool.Pool, n int, body func(c *scanOut, lo, hi int)) {
	nb, masks := len(o.binV), o.binM != nil
	outs := pool.Collect(p, n, scanGrain, func(c *scanOut, lo, hi int) {
		c.binV = make([][]uint32, nb)
		if masks {
			c.binM = make([][]uint64, nb)
		}
		body(c, lo, hi)
	})
	for i := range outs {
		c := &outs[i]
		o.scanned += c.scanned
		o.probes += c.probes
		for q := range c.binV {
			o.binV[q] = append(o.binV[q], c.binV[q]...)
		}
		for q := range c.binM {
			o.binM[q] = append(o.binM[q], c.binM[q]...)
		}
	}
}

// scanPart charges the handling of one decoded expand part — received
// frontier vertices are processed through the hash-indexed partial
// lists — and scans their partial edge lists (Algorithm 2 step 12),
// binning the discovered neighbors by owner mesh column and charging
// the edge scan and hash probes. It returns the edge entries inspected.
// With a one-member processor column part is the rank's own frontier:
// nothing was received, and the scan is Algorithm 1 steps 7–9.
// Both schedules call it once per expand part: the overlapped one as
// each arrives, the synchronous one in member order once the last has.
// The bins and the sent-cache state are identical either way (the sent
// cache admits each row vertex exactly once regardless of scan order,
// and the bins are sorted sets before they travel), and so is every
// charge.
func (e *engine2D) scanPart(s *sideState, part []uint32) int {
	if e.colG.Size() > 1 {
		e.c.ChargeItemsPar(len(part), e.model.VertexCost)
	}
	tr := e.c.Tracer()
	tr.Begin("engine", "scan")
	out := scanOut{binV: e.bins.raw}
	if e.pl.Inline(len(part), scanGrain) {
		e.scanChunk(s, part, &out)
	} else {
		out.collect(e.pl, len(part), func(c *scanOut, lo, hi int) { e.scanChunk(s, part[lo:hi], c) })
	}
	e.probes += out.probes
	e.c.ChargeItemsPar(out.scanned, e.model.EdgeCost)
	e.c.ChargeItemsPar(int(out.probes), e.model.HashCost)
	tr.End(trace.Arg{Key: "edges", Val: int64(out.scanned)}, trace.Arg{Key: "probes", Val: int64(out.probes)})
	return out.scanned
}

// scanChunk is scanPart's body over the received frontier vertices part.
func (e *engine2D) scanChunk(s *sideState, part []uint32, o *scanOut) {
	st := e.st
	l := st.Layout
	var cis [partition.ResolveBatch]uint32
	for len(part) > 0 {
		n := min(len(part), len(cis))
		o.probes += st.ResolveColumns(part[:n], &cis)
		part = part[n:]
		for _, ci := range cis[:n] {
			if ci == partition.NoColumn {
				continue // no partial list here
			}
			lo, hi := st.Off[ci], st.Off[ci+1]
			o.scanned += int(hi - lo)
			for k := lo; k < hi; k++ {
				if s.sent != nil {
					// The row's index was resolved when the store was
					// built; charge the lookup the paper's search makes.
					ri := st.RowIdx[k]
					o.probes += uint64(st.RowProbes[ri])
					if s.sent.TestAndSetAtomic(ri) {
						continue // already sent to its owner once (§2.4.3)
					}
				}
				u := st.Rows[k]
				j := l.ColBlockOf(u)
				o.binV[j] = append(o.binV[j], uint32(u))
			}
		}
	}
}

// scanLanes scans the partial edge lists of one decoded (vertex, mask)
// batch, appending discovered (neighbor, mask) pairs to the per-column
// bins, and charges the pair handling, edge scan, and hash probes. Both
// the synchronous and overlapped sweeps call it once per arrived part.
// With a one-member processor column avs is the rank's own frontier and
// ams the sweep's fmask: nothing was received, and each mask is read in
// place at the vertex's column, its local index.
func (e *multiEngine2D) scanLanes(avs []uint32, ams []uint64, binV [][]uint32, binM [][]uint64) int {
	tr := e.c.Tracer()
	tr.Begin("engine", "scan")
	out := scanOut{binV: binV, binM: binM}
	local := e.colG.Size() == 1
	if e.pl.Inline(len(avs), scanGrain) {
		e.scanChunk(avs, ams, local, &out)
	} else {
		out.collect(e.pl, len(avs), func(c *scanOut, lo, hi int) {
			ms := ams
			if !local {
				ms = ams[lo:hi]
			}
			e.scanChunk(avs[lo:hi], ms, local, c)
		})
	}
	e.probes += out.probes
	if !local {
		e.c.ChargeItemsPar(len(avs), e.model.VertexCost)
	}
	e.c.ChargeItemsPar(out.scanned, e.model.EdgeCost)
	e.c.ChargeItemsPar(int(out.probes), e.model.HashCost)
	tr.End(trace.Arg{Key: "edges", Val: int64(out.scanned)}, trace.Arg{Key: "probes", Val: int64(out.probes)})
	return out.scanned
}

// scanChunk is scanLanes' body over the arrived vertices avs: vertex
// idx's mask is ams[idx], or ams[column] when local.
func (e *multiEngine2D) scanChunk(avs []uint32, ams []uint64, local bool, o *scanOut) {
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
			var mask uint64
			if local {
				mask = ams[ci]
			} else {
				mask = ams[idx]
			}
			list := st.Rows[st.Off[ci]:st.Off[ci+1]]
			o.scanned += len(list)
			for _, u := range list {
				j := l.ColBlockOf(u)
				o.binV[j] = append(o.binV[j], uint32(u))
				o.binM[j] = append(o.binM[j], mask)
			}
		}
		avs = avs[n:]
		if !local {
			ams = ams[n:]
		}
	}
}
