package sssp

import (
	"math/bits"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/search"
	"repro/internal/torus"
)

// engine2D holds one rank's storage handles for Δ-stepping under the
// 2D edge partitioning. Relaxation rounds follow the BFS Algorithm 2
// shape: a targeted processor-column expand carries the active
// (vertex, dist) pairs to the ranks holding partial edge lists, the
// local scan turns partial lists into relax requests, and a
// processor-row personalized exchange delivers the requests to the
// owners (every neighbor discovered on mesh row i is owned by a rank
// of row i, the same invariant the BFS fold rides).
type engine2D struct {
	c     *comm.Comm
	st    *partition.Store2D
	opts  Options
	model torus.CostModel
	colG  comm.Group
	rowG  comm.Group
	// pl is the per-rank worker pool the relaxation scans and the wire
	// codec run on; see parallel.go for the determinism contract.
	pl   *pool.Pool
	hist frontier.ContainerHist
	// fold is the row-exchange half of a round and its per-run scratch,
	// its bins grown with use (see engine1D.fold); sendV/sendD stage the
	// targeted column expand, likewise reused every round.
	fold         *search.Fold[uint32]
	sendV, sendD [][]uint32
}

func newEngine2D(c *comm.Comm, st *partition.Store2D, l partition.View, opts Options) engine {
	mesh := comm.Mesh{R: l.R, C: l.C}
	c.SetCores(opts.Cores)
	e := &engine2D{
		c:     c,
		st:    st,
		opts:  opts,
		model: c.Model(),
		colG:  mesh.ColGroup(c.Rank()),
		rowG:  mesh.RowGroup(c.Rank()),
		pl:    pool.New(opts.Workers),
		sendV: make([][]uint32, l.R),
		sendD: make([][]uint32, l.R),
	}
	e.fold = search.NewFold[uint32](c, e.rowG, &e.opts.Common, l, requestPayload{e.pl, opts.Wire, &e.hist}, nil)
	return e
}

func (e *engine2D) containers() *frontier.ContainerHist { return &e.hist }

func (e *engine2D) maxWeight() uint32 {
	max := uint32(1)
	for _, w := range e.st.RowWts {
		if w > max {
			max = w
		}
	}
	return max
}

func (e *engine2D) localEdgeEntries() int { return len(e.st.Rows) }

// weightAt returns the weight of the i-th local partial-list entry
// (1 for unweighted stores).
func (e *engine2D) weightAt(i int64) uint32 {
	if e.st.RowWts == nil {
		return 1
	}
	return e.st.RowWts[i]
}

// scatter relaxes one class of edges out of the active owned vertices
// (vs ascending with parallel dists), exchanges the relax requests,
// and returns the requests destined to this rank, deduplicated to the
// minimum distance per vertex and valid until the next round.
//
// Both schedules run this one body and keep payloads and statistics
// bit-for-bit (the min-merge is order-insensitive). The overlapped one
// posts every send before any wait: active batches stream into the
// partial-list scan as they arrive, and the row exchange's sends post
// per destination bin as each finishes its min-merge.
func (e *engine2D) scatter(vs, ds []uint32, light bool, delta uint32, tag int, rec *epochRec) ([]uint32, []uint32) {
	r := e.colG.Size()

	// Targeted column expand: an active vertex travels only to the mesh
	// rows holding a non-empty partial edge list for it (§2.2), carrying
	// its tentative distance alongside.
	sendV, sendD := e.sendV, e.sendD
	for i := range sendV {
		sendV[i], sendD[i] = sendV[i][:0], sendD[i][:0]
	}
	for idx, gv := range vs {
		for w, need := range e.st.NeedWords(e.st.LocalOf(graph.Vertex(gv))) {
			for ; need != 0; need &= need - 1 {
				i := w*64 + bits.TrailingZeros64(need)
				sendV[i] = append(sendV[i], gv)
				sendD[i] = append(sendD[i], ds[idx])
			}
		}
	}
	e.c.ChargeItems(len(vs)*((r+63)/64), e.model.EdgeCost)
	lo, n := e.st.Lo, e.st.OwnedCount()
	prep := func(i int) []uint32 {
		if i == e.colG.Me {
			return nil // stays local; the scan reads sendV/sendD directly
		}
		return encodeRequests(e.pl, sendV[i], sendD[i], uint32(lo), n, e.opts.Wire, &e.hist)
	}

	// Scan the partial edge lists of every received active vertex and
	// bin the resulting relax requests by owner mesh column (relaxPart
	// runs on the worker pool and charges the scan).
	binV, binD := e.fold.Reset()
	scan := func(i int, part []uint32) {
		avs, ads := sendV[i], sendD[i]
		if i != e.colG.Me {
			avs, ads = e.fold.Decode(part)
		}
		rec.Edges += e.relaxPart(avs, ads, light, delta, binV, binD)
	}
	o := collective.Opts{Tag: tag, Chunk: e.opts.ChunkWords, Async: e.opts.Async}
	rec.ExpandWords = collective.Exchange(e.c, e.colG, o, prep, scan).RecvWords

	// Minimum-merge per destination, the row exchange to the owners, and
	// the owner's merge of what arrives.
	rvs, rds, _ := e.fold.Deliver(tag+1<<24, &rec.Step)
	return rvs, rds
}
