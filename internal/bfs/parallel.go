package bfs

import (
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
// in s.seen, from which setBins cuts the level's sets; without it each
// entry merges at its row of the fold's rows: the row is marked and a
// pair counted for its member, and a batch ORs its vertex's lane mask
// into the row's accumulator. xs holds the part's payloads in part
// order — with a one-member column the owned payload array, read at a
// vertex's column, its local index — and is nil when M carries nothing.
// Both schedules call it once per part; the marks and merges are
// order-insensitive, so the sets and every charge are the same either
// way.
func scanPart[M any](e *engine2D, t *search.Tally, s *sideState, part []uint32, xs []M, recv int) {
	ps := partScan{e: e, seen: s.seen, part: part}
	if e.lanes != nil {
		ps.rows, ps.acc = &e.lanes.Rows, e.lanes.Acc
		ps.xs, _ = any(xs).([]uint64)
	} else if s.seen == nil {
		ps.rows = &e.bins.rows
	}
	search.Scan(t, e.c, e.pl, len(part), scanGrain, recv, ps)
}

// partScan is scanPart's part: received frontier vertices and their lane
// masks, and where they merge.
type partScan struct {
	e    *engine2D
	seen []uint64     // the side's row marks, with the sent-neighbors cache
	rows *search.Rows // else the fold's rows
	acc  []uint64     // and a batch's lane accumulator, nil for one source
	part []uint32
	xs   []uint64
}

// Chunk is scanPart's body over part[from:to]; shared, its chunks run
// concurrently and mark rows and merge masks atomically.
func (ps partScan) Chunk(t *search.Tally, from, to int, shared bool) {
	st, seen, part, xs := ps.e.st, ps.seen, ps.part[from:to], ps.xs
	local := ps.e.colG.Size() == 1
	if xs != nil && !local {
		xs = xs[from:to]
	}
	var cis [partition.ResolveBatch]uint32
	for len(part) > 0 {
		n := min(len(part), len(cis))
		t.Probes += st.ResolveColumns(part[:n], &cis)
		part = part[n:]
		for idx, ci := range cis[:n] {
			if ci == partition.NoColumn {
				continue // no partial list here
			}
			lo, hi := st.Off[ci], st.Off[ci+1]
			t.Scanned += int(hi - lo)
			rows := st.RowIdx[lo:hi]
			switch {
			case seen != nil:
				// The rows' indexes were resolved when the store was
				// built; charge the lookups the paper's search makes.
				t.Probes += uint64(st.ListProbes[ci])
				markRows(seen, rows, shared)
			case ps.acc != nil:
				x := xs[idx]
				if local {
					x = xs[ci]
				}
				orRows(ps.acc, ps.rows, t.Pairs, rows, x, shared)
			default:
				orRows(nil, ps.rows, t.Pairs, rows, 0, shared)
			}
		}
		if xs != nil && !local {
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
		search.MarkAtomic(seen, ri)
	}
}

// orRows merges the entries at local rows rows into r (search.Rows):
// each row is marked and counts a pair for its member, and x is ORed into
// its accumulator when acc is non-nil — atomically when shared. It is
// never inlined: in Chunk, beside the marking path, this loop spills.
//
//go:noinline
func orRows(acc []uint64, r *search.Rows, pairs []uint64, rows []uint32, x uint64, shared bool) {
	switch {
	case acc == nil:
		for _, ri := range rows {
			r.Mark(pairs, ri, shared)
		}
	case shared:
		for _, ri := range rows {
			r.OrShared(acc, pairs, ri, x)
		}
	default:
		for _, ri := range rows {
			r.Or(acc, pairs, ri, x)
		}
	}
}
