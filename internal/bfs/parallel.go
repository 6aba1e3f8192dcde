package bfs

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/partition"
	"repro/internal/search"
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

// Every hot loop has one chunk body, run once over the whole range or
// per chunk on the pool (search.Scan), and told which. It reads the
// immutable store — a received vertex's partial list is two array reads
// away (Store2D.ResolveColumns), with no hash map probed — and marks
// with plain stores when run once, through atomic ORs / SetBitAtomic
// when its chunks run concurrently. A mark is an OR, so the marked bits,
// the sorted sets the fold moves and every count are the same at every
// pool size, whichever worker reaches a bit first.

// scanPart scans the partial edge lists of one decoded expand part
// (Algorithm 2 step 12; with a one-member column, the rank's own
// frontier and Algorithm 1 steps 7–9) and charges it, recv the vertices
// received. With the sent-neighbors cache each entry's row bit is marked
// in s.seen, from which setBins cuts the level's sets; without it
// the level's bins b take every neighbor, by owner mesh column, each
// with its vertex's payload. xs holds the part's payloads in part
// order — with a one-member column the owned payload array, read at a
// vertex's column, its local index — and is nil when M carries nothing.
// Both schedules call it once per part; the marks and bins are merged
// into sorted sets before they travel, so the sets and every charge are
// the same either way.
func scanPart[M any](e *engine2D, b *search.Bins[M], s *sideState, part []uint32, xs []M, recv int) {
	search.Scan(b, e.c, e.pl, len(part), scanGrain, recv, partScan[M]{e, s, part, xs})
}

// partScan is scanPart's part: received frontier vertices and their
// payloads.
type partScan[M any] struct {
	e    *engine2D
	s    *sideState
	part []uint32
	xs   []M
}

// Chunk is scanPart's body over part[from:to]; shared, its chunks run
// concurrently and mark row bits atomically. A zero-size payload is
// neither read nor binned (search.Column's idiom).
func (ps partScan[M]) Chunk(o *search.Bins[M], from, to int, shared bool) {
	st, seen, part, xs := ps.e.st, ps.s.seen, ps.part[from:to], ps.xs
	local := ps.e.colG.Size() == 1
	var x M
	if unsafe.Sizeof(x) != 0 && !local {
		xs = xs[from:to]
	}
	var cis [partition.ResolveBatch]uint32
	for len(part) > 0 {
		n := min(len(part), len(cis))
		o.Probes += st.ResolveColumns(part[:n], &cis)
		part = part[n:]
		for idx, ci := range cis[:n] {
			if ci == partition.NoColumn {
				continue // no partial list here
			}
			lo, hi := st.Off[ci], st.Off[ci+1]
			o.Scanned += int(hi - lo)
			if seen != nil {
				// The rows' indexes were resolved when the store was
				// built; charge the lookups the paper's search makes.
				o.Probes += uint64(st.ListProbes[ci])
				markRows(seen, st.RowIdx[lo:hi], shared)
				continue
			}
			if unsafe.Sizeof(x) != 0 {
				if local {
					x = xs[ci]
				} else {
					x = xs[idx]
				}
			}
			binList(o, st, st.RowIdx[lo:hi], x)
		}
		if unsafe.Sizeof(x) != 0 && !local {
			xs = xs[n:]
		}
	}
}

// markRows sets the row bits rows in seen, with an atomic OR per unset
// bit when shared.
func markRows(seen []uint64, rows []uint32, shared bool) {
	if !shared {
		for _, ri := range rows {
			seen[ri>>6] |= 1 << (ri & 63)
		}
		return
	}
	for _, ri := range rows {
		w, m := &seen[ri>>6], uint64(1)<<(ri&63)
		if atomic.LoadUint64(w)&m == 0 {
			atomic.OrUint64(w, m)
		}
	}
}

// binList bins the row vertices at local rows rows by owner mesh
// column, each with x. It is never inlined: in Chunk, beside the marking
// path, this loop spills.
//
//go:noinline
func binList[M any](o *search.Bins[M], st *partition.Store2D, rows []uint32, x M) {
	for _, ri := range rows {
		u, j := st.RowVertex(ri)
		o.V[j] = append(o.V[j], uint32(u))
		if unsafe.Sizeof(x) != 0 {
			o.X[j] = append(o.X[j], x)
		}
	}
}
