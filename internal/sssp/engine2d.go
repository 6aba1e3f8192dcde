package sssp

import (
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/search"
)

// engine2D holds one rank's storage handles for Δ-stepping on any
// mesh. Relaxation rounds follow the BFS Algorithm 2 shape: a targeted
// processor-column expand carries the active (vertex, dist) pairs to the
// ranks holding partial edge lists, the local scan turns partial lists
// into relax requests, and a processor-row personalized exchange
// delivers the requests to the owners (every neighbor discovered on mesh
// row i is owned by a rank of row i, the same invariant the BFS fold
// rides). With a one-member processor column (R = 1) there is no expand:
// active vertices relax their own full edge lists and one exchange over
// all P ranks delivers the requests (the Algorithm 1 fold shape).
type engine2D struct {
	c    *comm.Comm
	st   *partition.Store2D
	opts Options
	// pl is the per-rank worker pool the relaxation scans run on; see
	// parallel.go for the determinism contract.
	pl   *pool.Pool
	hist frontier.ContainerHist
	// fold is the row exchange of a round and its scratch, its bins grown
	// with use, not sized from FoldEntries as the lane fold's are: a round
	// relaxes only one bucket's edges. col is the column expand in the
	// fold's wire form, nil when the column is this rank alone.
	fold *search.Fold[uint32]
	col  *search.Column[uint32]
}

func newEngine2D(c *comm.Comm, st *partition.Store2D, l partition.View, opts Options) *engine2D {
	mesh := comm.Mesh{R: l.R, C: l.C}
	c.SetCores(opts.Cores)
	e := &engine2D{c: c, st: st, opts: opts, pl: pool.New(opts.Workers)}
	e.fold = search.NewFold[uint32](c, mesh.RowGroup(c.Rank()), &e.opts.Common, l, requestPayload{opts.Wire, &e.hist}, nil)
	if colG := mesh.ColGroup(c.Rank()); colG.Size() > 1 {
		e.col = search.NewColumn[uint32](c, colG, &e.opts.Common, st, e.fold)
	}
	return e
}

// maxWeight returns the largest local edge weight (1 if none).
func (e *engine2D) maxWeight() uint32 {
	max := uint32(1)
	for _, w := range e.st.RowWts {
		if w > max {
			max = w
		}
	}
	return max
}

// weightAt returns the weight of the i-th local partial-list entry
// (1 for unweighted stores).
func (e *engine2D) weightAt(i uint32) uint32 {
	if e.st.RowWts == nil {
		return 1
	}
	return e.st.RowWts[i]
}

// scatter relaxes one class of edges (light: w <= Δ, heavy: w > Δ) out
// of the active owned vertices (vs ascending, their distances D read at
// their local indexes),
// exchanges the relax requests, and returns the requests destined to
// this rank, deduplicated to the minimum distance per vertex and valid
// until the next round. Both schedules run this one body and keep
// payloads and statistics bit-for-bit (the min-merge is
// order-insensitive).
func (e *engine2D) scatter(vs, D []uint32, light bool, delta uint32, tag int, rec *epochRec) ([]uint32, []uint32) {
	b := e.fold.Reset()
	if e.col == nil {
		// The column is this rank: relax the active set's own lists.
		e.relaxPart(b, vs, D, light, delta, 0)
	} else {
		rec.ExpandWords = e.col.Expand(tag, nil, vs, D, func(avs, ads []uint32) { e.relaxPart(b, avs, ads, light, delta, len(avs)) })
	}
	rec.Edges += b.Scanned

	// Minimum-merge per destination, the row exchange to the owners, and
	// the owner's merge of what arrives.
	rvs, rds, _ := e.fold.Deliver(tag+1<<24, &rec.Step)
	return rvs, rds
}
