package sssp

import (
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/search"
	"repro/internal/torus"
)

// engine1D holds one rank's storage handles for Δ-stepping under the
// conventional 1D vertex partitioning: every rank owns full edge
// lists, so a relaxation round needs no expand — active vertices relax
// their own edges and a single personalized exchange over all P ranks
// delivers the requests to the owners (the Algorithm 1 fold shape).
//
// This is an independent implementation kept alongside the C=1 / R=1
// degenerate meshes of the 2D engine; the engines are differentially
// tested against each other and against the serial oracles.
type engine1D struct {
	c     *comm.Comm
	st    *partition.Store1D
	opts  Options
	model torus.CostModel
	// pl is the per-rank worker pool the relaxation scans and the wire
	// codec run on; see parallel.go for the determinism contract.
	pl   *pool.Pool
	hist frontier.ContainerHist
	// fold is the exchange half of a round and its per-run scratch. Its
	// bins grow with use rather than being sized from FoldEntries, as the
	// lane engines' are: a round relaxes only one bucket's edges, a small
	// fraction of that bound.
	fold *search.Fold[uint32]
}

func newEngine1D(c *comm.Comm, st *partition.Store1D, l partition.View, opts Options) engine {
	c.SetCores(opts.Cores)
	e := &engine1D{c: c, st: st, opts: opts, model: c.Model(), pl: pool.New(opts.Workers)}
	e.fold = search.NewFold[uint32](c, c.WorldGroup(), &e.opts.Common, l, requestPayload{e.pl, opts.Wire, &e.hist}, nil)
	return e
}

func (e *engine1D) containers() *frontier.ContainerHist { return &e.hist }

func (e *engine1D) maxWeight() uint32 {
	max := uint32(1)
	for _, w := range e.st.Wt {
		if w > max {
			max = w
		}
	}
	return max
}

func (e *engine1D) localEdgeEntries() int { return len(e.st.Adj) }

func (e *engine1D) weightAt(i int64) uint32 {
	if e.st.Wt == nil {
		return 1
	}
	return e.st.Wt[i]
}

// scatter relaxes one class of edges out of the active owned vertices
// and delivers the requests to their owners with a direct personalized
// all-to-all, returning this rank's deduplicated requests (valid until
// the next round). The scan is local, so the overlapped schedule's win
// is the pipelined delivery — per-bin min-merges interleave with the
// posts, and all P-1 transfers fly concurrently.
func (e *engine1D) scatter(vs, ds []uint32, light bool, delta uint32, tag int, rec *epochRec) ([]uint32, []uint32) {
	rec.Edges += e.relaxScan(vs, ds, light, delta)
	rvs, rds, _ := e.fold.Deliver(tag, &rec.Step)
	return rvs, rds
}
