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
// away (Store2D.ResolveColumns), with no hash map probed — and claims
// with plain stores when run once, through the atomic TestAndSetAtomic /
// SetBitAtomic when its chunks run concurrently: which worker wins a
// claim is then scheduler-dependent, but each neighbor still lands in
// its owner's bin at most once, so the sorted sets the fold moves — and
// every count — are the same at every pool size.

// scanPart scans the partial edge lists of one decoded expand part
// (Algorithm 2 step 12; with a one-member column, the rank's own
// frontier and Algorithm 1 steps 7–9) into the level's bins by owner
// mesh column, and charges it, recv the vertices received. Both
// schedules call it once per part; the sent cache admits each row vertex
// once in any order, so the bins — sorted before they travel — and every
// charge are the same either way.
func (e *engine2D) scanPart(s *sideState, part []uint32, recv int) {
	search.Scan(&e.bins.raw, e.c, e.pl, len(part), scanGrain, recv, partScan{e, s, part})
}

// partScan is scanPart's part, received frontier vertices.
type partScan struct {
	e    *engine2D
	s    *sideState
	part []uint32
}

// Chunk is scanPart's body over part[from:to]; shared, its chunks run
// concurrently and claim sent bits atomically.
func (ps partScan) Chunk(o *search.Bins[struct{}], from, to int, shared bool) {
	st, s, part := ps.e.st, ps.s, ps.part[from:to]
	l := st.Layout
	var cis [partition.ResolveBatch]uint32
	for len(part) > 0 {
		n := min(len(part), len(cis))
		o.Probes += st.ResolveColumns(part[:n], &cis)
		part = part[n:]
		for _, ci := range cis[:n] {
			if ci == partition.NoColumn {
				continue // no partial list here
			}
			lo, hi := st.Off[ci], st.Off[ci+1]
			o.Scanned += int(hi - lo)
			for k := lo; k < hi; k++ {
				if s.sent != nil {
					// The row's index was resolved when the store was
					// built; charge the lookup the paper's search makes.
					ri := st.RowIdx[k]
					o.Probes += uint64(st.RowProbes[ri])
					var sent bool
					if shared {
						sent = s.sent.TestAndSetAtomic(ri)
					} else {
						sent = s.sent.TestAndSet(ri)
					}
					if sent {
						continue // already sent to its owner once (§2.4.3)
					}
				}
				u := st.Rows[k]
				j := l.ColBlockOf(u)
				o.V[j] = append(o.V[j], uint32(u))
			}
		}
	}
}

// scanLanes scans the partial edge lists of one decoded (vertex, mask)
// part into the sweep's bins b, (neighbor, mask) pairs by owner mesh
// column, and charges it, recv the pairs received. With a one-member
// column avs is the rank's own frontier and ams the sweep's fmask, each
// mask read in place at the vertex's column, its local index.
func (e *engine2D) scanLanes(b *search.Bins[uint64], avs []uint32, ams []uint64, recv int) {
	search.Scan(b, e.c, e.pl, len(avs), scanGrain, recv, laneScan{e, avs, ams})
}

// laneScan is scanLanes' part, arrived vertices and their masks.
type laneScan struct {
	e   *engine2D
	avs []uint32
	ams []uint64
}

// Chunk is scanLanes' body over avs[lo:hi]: vertex idx's mask is
// ams[idx], or ams[column] with a one-member column.
func (k laneScan) Chunk(o *search.Bins[uint64], lo, hi int, _ bool) {
	st, avs, ams := k.e.st, k.avs[lo:hi], k.ams
	l := st.Layout
	local := k.e.colG.Size() == 1
	if !local {
		ams = ams[lo:hi]
	}
	var cis [partition.ResolveBatch]uint32
	for len(avs) > 0 {
		n := min(len(avs), len(cis))
		o.Probes += st.ResolveColumns(avs[:n], &cis)
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
			o.Scanned += len(list)
			for _, u := range list {
				j := l.ColBlockOf(u)
				o.V[j] = append(o.V[j], uint32(u))
				o.X[j] = append(o.X[j], mask)
			}
		}
		avs = avs[n:]
		if !local {
			ams = ams[n:]
		}
	}
}
