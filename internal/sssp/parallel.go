package sssp

import (
	"repro/internal/graph"
	"repro/internal/pool"
	"repro/internal/trace"
)

// relaxGrain is the pool chunk width, in active vertices, for the
// relaxation scans. Chunk boundaries are pure functions of the batch
// length (see internal/pool), so per-chunk request bins concatenate in
// a worker-count-independent order; the downstream min-merge is
// order-insensitive anyway, making the delivered request sets — and
// every count — bit-identical to the serial scan.
const relaxGrain = 512

// relaxScan relaxes one class of edges out of the active owned
// vertices on the worker pool, binning the (neighbor, candidate) relax
// requests by owner rank into the fold's raw bins — the 1D scan shared
// by the synchronous and overlapped schedules — and charges the edge
// scan.
func (e *engine1D) relaxScan(vs, ds []uint32, light bool, delta uint32) (scanned int) {
	tr := e.c.Tracer()
	tr.Begin("engine", "scan")
	l := e.st.Layout
	p := e.world.Size()
	binV, binD := e.fold.reset()
	if nc := pool.Chunks(len(vs), relaxGrain); e.pl.Workers() > 1 && nc > 1 {
		type chunkOut struct {
			binV    [][]uint32
			binD    [][]uint32
			scanned int
		}
		outs := make([]chunkOut, nc)
		e.pl.Run(len(vs), relaxGrain, func(ch, lo, hi int) {
			o := &outs[ch]
			o.binV = make([][]uint32, p)
			o.binD = make([][]uint32, p)
			for idx := lo; idx < hi; idx++ {
				li := e.st.LocalOf(graph.Vertex(vs[idx]))
				dv := ds[idx]
				for i := e.st.Off[li]; i < e.st.Off[li+1]; i++ {
					o.scanned++
					w := e.weightAt(i)
					if (w <= delta) != light {
						continue
					}
					cand := dv + w
					if cand < dv || cand == graph.MaxDist {
						continue // saturated: stays unreachable
					}
					u := e.st.Adj[i]
					q := l.OwnerRank(u)
					o.binV[q] = append(o.binV[q], uint32(u))
					o.binD[q] = append(o.binD[q], cand)
				}
			}
		})
		for i := range outs {
			scanned += outs[i].scanned
			for q := range outs[i].binV {
				binV[q] = append(binV[q], outs[i].binV[q]...)
				binD[q] = append(binD[q], outs[i].binD[q]...)
			}
		}
	} else {
		for idx, gv := range vs {
			li := e.st.LocalOf(graph.Vertex(gv))
			dv := ds[idx]
			for i := e.st.Off[li]; i < e.st.Off[li+1]; i++ {
				scanned++
				w := e.weightAt(i)
				if (w <= delta) != light {
					continue
				}
				cand := dv + w
				if cand < dv || cand == graph.MaxDist {
					continue // saturated: stays unreachable
				}
				u := e.st.Adj[i]
				q := l.OwnerRank(u)
				binV[q] = append(binV[q], uint32(u))
				binD[q] = append(binD[q], cand)
			}
		}
	}
	e.c.ChargeItemsPar(scanned, e.model.EdgeCost)
	tr.End(trace.Arg{Key: "edges", Val: int64(scanned)})
	return scanned
}

// relaxPart scans the partial edge lists of one arrived active batch
// on the worker pool, appending relax requests to the per-column bins
// in chunk order, and charges the pair handling, edge scan, and hash
// probes. Both 2D schedules call it once per arrived part.
func (e *engine2D) relaxPart(avs, ads []uint32, light bool, delta uint32, binV, binD [][]uint32) int {
	tr := e.c.Tracer()
	tr.Begin("engine", "scan")
	l := e.st.Layout
	scanned := 0
	var probes uint64
	if nc := pool.Chunks(len(avs), relaxGrain); e.pl.Workers() > 1 && nc > 1 {
		type chunkOut struct {
			binV    [][]uint32
			binD    [][]uint32
			scanned int
			probes  uint64
		}
		outs := make([]chunkOut, nc)
		e.pl.Run(len(avs), relaxGrain, func(ch, lo, hi int) {
			o := &outs[ch]
			o.binV = make([][]uint32, l.C)
			o.binD = make([][]uint32, l.C)
			for idx := lo; idx < hi; idx++ {
				ci, ok, pr := e.st.ColMap.GetCounted(avs[idx])
				o.probes += uint64(pr)
				if !ok {
					continue // no partial list here (possible only locally)
				}
				dv := ads[idx]
				for i := e.st.Off[ci]; i < e.st.Off[ci+1]; i++ {
					o.scanned++
					w := e.weightAt(i)
					if (w <= delta) != light {
						continue
					}
					cand := dv + w
					if cand < dv || cand == graph.MaxDist {
						continue // saturated: stays unreachable
					}
					u := e.st.Rows[i]
					j := l.ColBlockOf(u)
					o.binV[j] = append(o.binV[j], uint32(u))
					o.binD[j] = append(o.binD[j], cand)
				}
			}
		})
		for i := range outs {
			scanned += outs[i].scanned
			probes += outs[i].probes
			for j := range outs[i].binV {
				binV[j] = append(binV[j], outs[i].binV[j]...)
				binD[j] = append(binD[j], outs[i].binD[j]...)
			}
		}
		e.st.ColMap.AddProbes(probes)
	} else {
		p0 := e.st.ColMap.Probes()
		for idx, gv := range avs {
			ci, ok := e.st.ColMap.Get(graph.Vertex(gv))
			if !ok {
				continue // no partial list here (possible only locally)
			}
			dv := ads[idx]
			for i := e.st.Off[ci]; i < e.st.Off[ci+1]; i++ {
				scanned++
				w := e.weightAt(i)
				if (w <= delta) != light {
					continue
				}
				cand := dv + w
				if cand < dv || cand == graph.MaxDist {
					continue // saturated: stays unreachable
				}
				u := e.st.Rows[i]
				j := l.ColBlockOf(u)
				binV[j] = append(binV[j], uint32(u))
				binD[j] = append(binD[j], cand)
			}
		}
		probes = e.st.ColMap.Probes() - p0
	}
	e.c.ChargeItemsPar(len(avs), e.model.VertexCost)
	e.c.ChargeItemsPar(scanned, e.model.EdgeCost)
	e.c.ChargeItemsPar(int(probes), e.model.HashCost)
	tr.End(trace.Arg{Key: "edges", Val: int64(scanned)})
	return scanned
}
