package sssp

import (
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/search"
)

// relaxGrain is the pool chunk width, in active vertices, for the
// relaxation scans. Chunk boundaries are pure functions of the batch
// length (see internal/pool); the min-merge into the fold's rows is
// order-insensitive and each chunk counts its own pairs, making the
// delivered request sets — and every count — the same at every pool
// size.
const relaxGrain = 512

// relaxPart relaxes the partial edge lists of one batch of active pairs
// into the fold's rows — its one chunk body run over the whole batch, or
// per chunk on the pool (search.Scan) — and charges the scan, recv the
// pairs received (0 for the rank's own active set, which nothing
// delivered). ads holds the batch's distances in batch order — with a
// one-member column the owned distance array, read at a vertex's
// column, its local index. Both schedules call it once per part.
func (e *engine2D) relaxPart(t *search.Tally, avs, ads []uint32, light bool, delta uint32, recv int) {
	search.Scan(t, e.c, e.pl, len(avs), relaxGrain, recv, relaxScan{e, avs, ads, light, delta})
}

// relaxScan is relaxPart's batch, arrived pairs (avs, ads).
type relaxScan struct {
	e        *engine2D
	avs, ads []uint32
	light    bool
	delta    uint32
}

// Chunk is relaxPart's body over the pairs [lo, hi). Each request
// min-merges at its row of the fold's rows (search.Rows.Min), through a
// CAS loop when shared.
func (k relaxScan) Chunk(t *search.Tally, lo, hi int, shared bool) {
	e, avs, ads, light, delta := k.e, k.avs[lo:hi], k.ads, k.light, k.delta
	st := e.st
	acc, rows, pairs := e.fold.Acc, &e.fold.Rows, t.Pairs
	local := e.col == nil
	if !local {
		ads = ads[lo:hi]
	}
	var cis [partition.ResolveBatch]uint32
	for len(avs) > 0 {
		n := min(len(avs), len(cis))
		t.Probes += st.ResolveColumns(avs[:n], &cis)
		for idx, ci := range cis[:n] {
			if ci == partition.NoColumn {
				continue // no partial list here (possible only locally)
			}
			dv := ads[idx]
			if local {
				dv = ads[ci]
			}
			for i := st.Off[ci]; i < st.Off[ci+1]; i++ {
				t.Scanned++
				w := e.weightAt(i)
				if (w <= delta) != light {
					continue
				}
				cand := dv + w
				if cand < dv || cand == graph.MaxDist {
					continue // saturated: stays unreachable
				}
				if shared {
					rows.MinShared(acc, pairs, st.RowIdx[i], cand)
				} else {
					rows.Min(acc, pairs, st.RowIdx[i], cand)
				}
			}
		}
		avs = avs[n:]
		if !local {
			ads = ads[n:]
		}
	}
}
