package bfs

import (
	"repro/internal/graph"
	"repro/internal/pool"
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

// scanFrontier merges the frontier's edge lists into the raw per-owner
// bins (Algorithm 1 steps 7–9) on the worker pool, charging the edge
// scan and hash probes; the bins are unsorted (the fold paths merge and
// charge them). Per-chunk bins concatenate in chunk order, so bin
// contents are identical to the serial scan; with the sent cache the
// CAS claim order is scheduler-dependent, but each neighbor still lands
// in its owner's bin at most once, so the sorted sets the fold moves —
// and every count — are unchanged.
func (e *engine1D) scanFrontier(s *sideState) int {
	l := e.st.Layout
	bins := e.bins.raw
	scanned := 0
	var probes uint64
	vs := s.F.Vertices()
	if nc := pool.Chunks(len(vs), scanGrain); e.pl.Workers() > 1 && nc > 1 {
		type chunkOut struct {
			bins    [][]uint32
			scanned int
			probes  uint64
		}
		outs := make([]chunkOut, nc)
		e.pl.Run(len(vs), scanGrain, func(ch, lo, hi int) {
			o := &outs[ch]
			o.bins = make([][]uint32, len(bins))
			for _, gv := range vs[lo:hi] {
				li := e.st.LocalOf(graph.Vertex(gv))
				adj := e.st.Neighbors(li)
				o.scanned += len(adj)
				for _, u := range adj {
					if s.sent != nil {
						idx, ok, pr := e.st.TargetMap.GetCounted(u)
						o.probes += uint64(pr)
						if !ok {
							panic("bfs: neighbor missing from TargetMap")
						}
						if s.sent.TestAndSetAtomic(idx) {
							continue // already sent to its owner once (§2.4.3)
						}
					}
					o.bins[l.OwnerRank(u)] = append(o.bins[l.OwnerRank(u)], uint32(u))
				}
			}
		})
		for i := range outs {
			scanned += outs[i].scanned
			probes += outs[i].probes
			for q, b := range outs[i].bins {
				bins[q] = append(bins[q], b...)
			}
		}
		e.st.TargetMap.AddProbes(probes)
	} else {
		probes0 := e.st.TargetMap.Probes()
		for _, gv := range vs {
			li := e.st.LocalOf(graph.Vertex(gv))
			adj := e.st.Neighbors(li)
			scanned += len(adj)
			for _, u := range adj {
				if s.sent != nil {
					idx, ok := e.st.TargetMap.Get(u)
					if !ok {
						panic("bfs: neighbor missing from TargetMap")
					}
					if s.sent.TestAndSet(idx) {
						continue // already sent to its owner once (§2.4.3)
					}
				}
				bins[l.OwnerRank(u)] = append(bins[l.OwnerRank(u)], uint32(u))
			}
		}
		probes = e.st.TargetMap.Probes() - probes0
	}
	e.c.ChargeItemsPar(scanned, e.model.EdgeCost)
	e.c.ChargeItemsPar(int(probes), e.model.HashCost)
	return scanned
}

// scanLanes scans the partial edge lists of one decoded (vertex, mask)
// batch on the worker pool, appending discovered (neighbor, mask) pairs
// to the per-column bins in chunk order, and charges the pair handling,
// edge scan, and hash probes. Both the synchronous and overlapped 2D
// sweeps call it once per arrived part.
func (e *multiEngine2D) scanLanes(avs []uint32, ams []uint64, binV [][]uint32, binM [][]uint64) int {
	l := e.st.Layout
	scanned := 0
	var probes uint64
	if nc := pool.Chunks(len(avs), scanGrain); e.pl.Workers() > 1 && nc > 1 {
		type chunkOut struct {
			binV    [][]uint32
			binM    [][]uint64
			scanned int
			probes  uint64
		}
		outs := make([]chunkOut, nc)
		e.pl.Run(len(avs), scanGrain, func(ch, lo, hi int) {
			o := &outs[ch]
			o.binV = make([][]uint32, l.C)
			o.binM = make([][]uint64, l.C)
			for idx := lo; idx < hi; idx++ {
				ci, ok, pr := e.st.ColMap.GetCounted(avs[idx])
				o.probes += uint64(pr)
				if !ok {
					continue // no partial list here (possible only locally)
				}
				mask := ams[idx]
				for i := e.st.Off[ci]; i < e.st.Off[ci+1]; i++ {
					o.scanned++
					u := e.st.Rows[i]
					j := l.ColBlockOf(u)
					o.binV[j] = append(o.binV[j], uint32(u))
					o.binM[j] = append(o.binM[j], mask)
				}
			}
		})
		for i := range outs {
			scanned += outs[i].scanned
			probes += outs[i].probes
			for j := range outs[i].binV {
				binV[j] = append(binV[j], outs[i].binV[j]...)
				binM[j] = append(binM[j], outs[i].binM[j]...)
			}
		}
		e.st.ColMap.AddProbes(probes)
	} else {
		p0 := e.st.ColMap.Probes()
		for idx, gv := range avs {
			ci, ok := e.st.ColMap.Get(gv)
			if !ok {
				continue // no partial list here (possible only locally)
			}
			mask := ams[idx]
			for i := e.st.Off[ci]; i < e.st.Off[ci+1]; i++ {
				scanned++
				u := e.st.Rows[i]
				j := l.ColBlockOf(u)
				binV[j] = append(binV[j], uint32(u))
				binM[j] = append(binM[j], mask)
			}
		}
		probes = e.st.ColMap.Probes() - p0
	}
	e.c.ChargeItemsPar(len(avs), e.model.VertexCost)
	e.c.ChargeItemsPar(scanned, e.model.EdgeCost)
	e.c.ChargeItemsPar(int(probes), e.model.HashCost)
	return scanned
}

// scanLanes merges the frontier's full edge lists into the fold's
// per-owner (neighbor, mask) bins on the worker pool — the 1D sweep's
// local scan, identical between the synchronous and overlapped
// schedules — and charges the edge scan.
func (e *multiEngine1D) scanLanes(s *multiState) (scanned int) {
	l := e.st.Layout
	p := e.world.Size()
	binV, binM := e.fold.reset()
	vs := s.F.Vertices()
	if nc := pool.Chunks(len(vs), scanGrain); e.pl.Workers() > 1 && nc > 1 {
		type chunkOut struct {
			binV    [][]uint32
			binM    [][]uint64
			scanned int
		}
		outs := make([]chunkOut, nc)
		e.pl.Run(len(vs), scanGrain, func(ch, lo, hi int) {
			o := &outs[ch]
			o.binV = make([][]uint32, p)
			o.binM = make([][]uint64, p)
			for _, gv := range vs[lo:hi] {
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
		})
		for i := range outs {
			scanned += outs[i].scanned
			for q := range outs[i].binV {
				binV[q] = append(binV[q], outs[i].binV[q]...)
				binM[q] = append(binM[q], outs[i].binM[q]...)
			}
		}
	} else {
		for _, gv := range vs {
			li := e.st.LocalOf(graph.Vertex(gv))
			m := s.fmask[li]
			adj := e.st.Neighbors(li)
			scanned += len(adj)
			for _, u := range adj {
				q := l.OwnerRank(u)
				binV[q] = append(binV[q], uint32(u))
				binM[q] = append(binM[q], m)
			}
		}
	}
	e.c.ChargeItemsPar(scanned, e.model.EdgeCost)
	return scanned
}
