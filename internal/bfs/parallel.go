package bfs

import (
	"repro/internal/graph"
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

// scanFrontier merges the frontier's edge lists into the raw per-owner
// bins (Algorithm 1 steps 7–9), charging the edge scan and hash probes;
// the bins are unsorted (the fold paths merge and charge them).
func (e *engine1D) scanFrontier(s *sideState) int {
	tr := e.c.Tracer()
	tr.Begin("engine", "scan")
	vs := s.F.Vertices()
	out := scanOut{binV: e.bins.raw}
	if e.pl.Inline(len(vs), scanGrain) {
		e.scanChunk(s, vs, &out)
	} else {
		out.collect(e.pl, len(vs), func(c *scanOut, lo, hi int) { e.scanChunk(s, vs[lo:hi], c) })
	}
	e.probes += out.probes
	e.c.ChargeItemsPar(out.scanned, e.model.EdgeCost)
	e.c.ChargeItemsPar(int(out.probes), e.model.HashCost)
	tr.End(trace.Arg{Key: "edges", Val: int64(out.scanned)}, trace.Arg{Key: "probes", Val: int64(out.probes)})
	return out.scanned
}

// scanChunk is scanFrontier's body over the frontier vertices vs.
func (e *engine1D) scanChunk(s *sideState, vs []uint32, o *scanOut) {
	st := e.st
	l := st.Layout
	for _, gv := range vs {
		li := st.LocalOf(graph.Vertex(gv))
		lo, hi := st.Off[li], st.Off[li+1]
		o.scanned += int(hi - lo)
		for k := lo; k < hi; k++ {
			if s.sent != nil {
				// The target's index was resolved when the store was
				// built; charge the lookup the paper's search makes.
				ti := st.AdjIdx[k]
				o.probes += uint64(st.TargetProbes[ti])
				if s.sent.TestAndSetAtomic(ti) {
					continue // already sent to its owner once (§2.4.3)
				}
			}
			u := st.Adj[k]
			q := l.OwnerRank(u)
			o.binV[q] = append(o.binV[q], uint32(u))
		}
	}
}

// scanPart charges the handling of one decoded expand part — received
// frontier vertices are processed through the hash-indexed partial
// lists — and scans their partial edge lists (Algorithm 2 step 12),
// binning the discovered neighbors by owner mesh column and charging
// the edge scan and hash probes. It returns the edge entries inspected.
// The overlapped schedule calls it once per received part as each
// arrives; the synchronous one once with all of F̄. The bins and the
// sent-cache state are identical either way (the sent cache admits each
// row vertex exactly once regardless of scan order, and the bins are
// sorted sets before they travel); the charges are equal only up to
// float association — the synchronous schedule charges F̄ once, the
// overlapped one part by part, and ChargeItemsPar(a)+ChargeItemsPar(b)
// is not ChargeItemsPar(a+b) on a float clock — which is why the
// synchronous branch of step keeps its single call.
func (e *engine2D) scanPart(s *sideState, part []uint32) int {
	e.c.ChargeItemsPar(len(part), e.model.VertexCost)
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
// the synchronous and overlapped 2D sweeps call it once per arrived
// part.
func (e *multiEngine2D) scanLanes(avs []uint32, ams []uint64, binV [][]uint32, binM [][]uint64) int {
	tr := e.c.Tracer()
	tr.Begin("engine", "scan")
	out := scanOut{binV: binV, binM: binM}
	if e.pl.Inline(len(avs), scanGrain) {
		e.scanChunk(avs, ams, &out)
	} else {
		out.collect(e.pl, len(avs), func(c *scanOut, lo, hi int) { e.scanChunk(avs[lo:hi], ams[lo:hi], c) })
	}
	e.probes += out.probes
	e.c.ChargeItemsPar(len(avs), e.model.VertexCost)
	e.c.ChargeItemsPar(out.scanned, e.model.EdgeCost)
	e.c.ChargeItemsPar(int(out.probes), e.model.HashCost)
	tr.End(trace.Arg{Key: "edges", Val: int64(out.scanned)}, trace.Arg{Key: "probes", Val: int64(out.probes)})
	return out.scanned
}

// scanChunk is the 2D scanLanes body over the arrived pairs (avs, ams).
func (e *multiEngine2D) scanChunk(avs []uint32, ams []uint64, o *scanOut) {
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
			mask := ams[idx]
			list := st.Rows[st.Off[ci]:st.Off[ci+1]]
			o.scanned += len(list)
			for _, u := range list {
				j := l.ColBlockOf(u)
				o.binV[j] = append(o.binV[j], uint32(u))
				o.binM[j] = append(o.binM[j], mask)
			}
		}
		avs, ams = avs[n:], ams[n:]
	}
}

// scanLanes merges the frontier's full edge lists into the fold's
// per-owner (neighbor, mask) bins — the 1D sweep's local scan, identical
// between the synchronous and overlapped schedules — and charges the
// edge scan.
func (e *multiEngine1D) scanLanes(s *multiState) int {
	tr := e.c.Tracer()
	tr.Begin("engine", "scan")
	binV, binM := e.fold.Reset()
	vs := s.F.Vertices()
	out := scanOut{binV: binV, binM: binM}
	if e.pl.Inline(len(vs), scanGrain) {
		e.scanChunk(s, vs, &out)
	} else {
		out.collect(e.pl, len(vs), func(c *scanOut, lo, hi int) { e.scanChunk(s, vs[lo:hi], c) })
	}
	e.c.ChargeItemsPar(out.scanned, e.model.EdgeCost)
	tr.End(trace.Arg{Key: "edges", Val: int64(out.scanned)})
	return out.scanned
}

// scanChunk is the 1D scanLanes body over the frontier vertices vs.
func (e *multiEngine1D) scanChunk(s *multiState, vs []uint32, o *scanOut) {
	l := e.st.Layout
	for _, gv := range vs {
		li := e.st.LocalOf(graph.Vertex(gv))
		m := s.fmask[li]
		adj := e.st.Neighbors(li)
		o.scanned += len(adj)
		for _, u := range adj {
			q := l.OwnerRank(u)
			o.binV[q] = append(o.binV[q], uint32(u))
			o.binM[q] = append(o.binM[q], m)
		}
	}
}
