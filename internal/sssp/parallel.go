package sssp

import (
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/search"
)

// relaxGrain is the pool chunk width, in active vertices, for the
// relaxation scans. Chunk boundaries are pure functions of the batch
// length (see internal/pool), so per-chunk request bins concatenate in
// a worker-count-independent order; the downstream min-merge is
// order-insensitive anyway, making the delivered request sets — and
// every count — the same at every pool size.
const relaxGrain = 512

// relaxPart relaxes the partial edge lists of one batch of active pairs
// into the fold's raw bins b — its one chunk body run over the whole
// batch, or per chunk on the pool (search.Scan) — and charges the scan,
// recv the pairs received (0 for the rank's own active set, which
// nothing delivered). ads holds the batch's distances in batch order —
// with a one-member column the owned distance array, read at a
// vertex's column, its local index. Both schedules call it once per
// part.
func (e *engine2D) relaxPart(b *search.Bins[uint32], avs, ads []uint32, light bool, delta uint32, recv int) {
	search.Scan(b, e.c, e.pl, len(avs), relaxGrain, recv, relaxScan{e, avs, ads, light, delta})
}

// relaxScan is relaxPart's batch, arrived pairs (avs, ads).
type relaxScan struct {
	e        *engine2D
	avs, ads []uint32
	light    bool
	delta    uint32
}

// Chunk is relaxPart's body over the pairs [lo, hi).
func (k relaxScan) Chunk(o *search.Bins[uint32], lo, hi int, _ bool) {
	e, avs, ads, light, delta := k.e, k.avs[lo:hi], k.ads, k.light, k.delta
	st := e.st
	local := e.col == nil
	if !local {
		ads = ads[lo:hi]
	}
	var cis [partition.ResolveBatch]uint32
	for len(avs) > 0 {
		n := min(len(avs), len(cis))
		o.Probes += st.ResolveColumns(avs[:n], &cis)
		for idx, ci := range cis[:n] {
			if ci == partition.NoColumn {
				continue // no partial list here (possible only locally)
			}
			dv := ads[idx]
			if local {
				dv = ads[ci]
			}
			for i := st.Off[ci]; i < st.Off[ci+1]; i++ {
				o.Scanned++
				w := e.weightAt(i)
				if (w <= delta) != light {
					continue
				}
				cand := dv + w
				if cand < dv || cand == graph.MaxDist {
					continue // saturated: stays unreachable
				}
				u, j := st.RowVertex(st.RowIdx[i])
				o.V[j] = append(o.V[j], uint32(u))
				o.X[j] = append(o.X[j], cand)
			}
		}
		avs = avs[n:]
		if !local {
			ads = ads[n:]
		}
	}
}
