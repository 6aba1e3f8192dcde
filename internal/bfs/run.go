package bfs

import (
	"fmt"
	"slices"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/search"
)

// The exported Run* entry points are three bodies — uni-directional,
// bi-directional, multi-source — which share search.Run's harness and
// the helpers below. Every partitioning is a mesh shape, so one engine
// per family serves them all.

// rankOut is what one rank's body hands back to the harness besides
// the labels it wrote into the answer (search.Owned).
type rankOut struct {
	recs   []rankLevel
	probes uint64
	dist   int64 // the globally agreed s→t distance, -1 when there is none
}

// checkRun validates what every BFS run is handed and returns the
// stores' layout; snapshots is false for the drivers without
// checkpoint support.
func checkRun(w *comm.World, stores []*partition.Store2D, opts *Options, snapshots bool) (partition.View, error) {
	l, err := search.CheckShape("bfs", w, stores)
	if err == nil {
		err = search.CheckVertex("bfs", "source", opts.Source, l.N)
	}
	if err == nil && opts.HasTarget {
		err = search.CheckVertex("bfs", "target", opts.Target, l.N)
	}
	if err == nil {
		err = opts.CheckRobustness("bfs", snapshots)
	}
	return l, err
}

// finish merges a finished World into res — statistics, probes, the
// s→t distance rank 0 holds — publishes the run's metrics and returns
// res with the cancellation, if any, as the error.
func finish(res *Result, l partition.View, opts *Options, out search.Outcome[rankOut]) error {
	res.N, res.R, res.C, res.Wall = l.N, l.R, l.C, out.Wall
	mergeStats(res, out)
	for _, r := range out.PerRank {
		res.HashProbes += r.probes
	}
	if d := out.PerRank[0].dist; d >= 0 {
		res.Found, res.Distance = true, int32(d)
	}
	publishMetrics(opts.Metrics, res)
	return out.Err()
}

// trivialResult handles the source==target case without communication.
func trivialResult(l partition.View, source graph.Vertex) *Result {
	res := &Result{N: l.N, R: l.R, C: l.C, Found: true}
	res.Levels = make([]int32, l.N)
	for i := range res.Levels {
		res.Levels[i] = graph.Unreached
	}
	res.Levels[source] = 0
	return res
}

// drive is a level-synchronized driver: it runs rank c's engine to the
// end of the search, its (source) side labeling into levels — the rank's
// block of the Result's — and returns the per-level records, the
// globally agreed s→t distance (-1 when the target was not reached, or
// there is none) and the cancellation, if any.
type drive func(c *comm.Comm, e *engine2D, l partition.View, opts Options, levels []int32) ([]rankLevel, int64, *search.Canceled)

// runSides allocates the Result and runs drive on every rank's engine,
// each labeling its owned block of the Result's levels.
func runSides(w *comm.World, stores []*partition.Store2D, l partition.View, opts Options, drive drive) (*Result, error) {
	res := &Result{Levels: make([]int32, l.N)}
	out, err := search.Run(w, &opts.Common, func(c *comm.Comm) (rankOut, *search.Canceled) {
		e := newEngine2D(c, stores[c.Rank()], l, opts)
		recs, dist, cxl := drive(c, e, l, opts, search.Owned(l, c.Rank(), res.Levels))
		return rankOut{recs: recs, probes: e.probes, dist: dist}, cxl
	})
	if err != nil {
		return nil, err
	}
	return res, finish(res, l, &opts, out)
}

// Run2D executes the uni-directional search across the world:
// Algorithm 2, or with the mesh degenerate to R = 1 or C = 1 the two 1D
// partitionings of Table 1 (R = 1 is Algorithm 1). stores must come from
// partition.Build2D with P = w.P ranks.
func Run2D(w *comm.World, stores []*partition.Store2D, opts Options) (*Result, error) {
	l, err := checkRun(w, stores, &opts, true)
	if err != nil {
		return nil, err
	}
	if opts.HasTarget && opts.Source == opts.Target {
		return trivialResult(l, opts.Source), nil
	}
	return runSides(w, stores, l, opts, driveUni)
}

// RunBidirectional2D executes the bi-directional search of §2.3 on any
// mesh (the paper notes either partitioning can host it): two
// level-synchronized searches, one from the source and one from the
// target, each level expanding whichever side has the smaller global
// frontier. The search stops as soon as the best meeting path is
// provably optimal, which keeps both frontiers small and — as the paper
// reports — cuts message volume by orders of magnitude relative to the
// uni-directional search.
//
// The returned Result carries the source side's levels; Distance is the
// exact s→t graph distance when Found.
func RunBidirectional2D(w *comm.World, stores []*partition.Store2D, opts Options) (*Result, error) {
	if !opts.HasTarget {
		return nil, fmt.Errorf("bfs: bi-directional search requires a target")
	}
	l, err := checkRun(w, stores, &opts, false)
	if err != nil {
		return nil, err
	}
	if opts.Source == opts.Target {
		return trivialResult(l, opts.Source), nil
	}
	return runSides(w, stores, l, opts, driveBidir)
}

// MultiRun2D executes a batched multi-source BFS on any mesh. Direction
// is always top-down; the sent-neighbors cache does not apply (a vertex
// must be re-sent when it carries new lanes) and is ignored.
func MultiRun2D(w *comm.World, stores []*partition.Store2D, sources []graph.Vertex, opts Options) (*MultiResult, error) {
	l, err := search.CheckShape("bfs", w, stores)
	if err == nil {
		err = validateSources(sources, l.N)
	}
	if err == nil {
		err = opts.CheckRobustness("bfs", false)
	}
	if err != nil {
		return nil, err
	}
	// The answer, for the ranks to label (newMultiState): one array per
	// lane, so a caller that keeps one lane does not pin the whole batch.
	res := &MultiResult{B: len(sources), Sources: slices.Clone(sources), LaneLevels: make([][]int32, len(sources))}
	res.Levels = make([]int32, l.N)
	for lane := range res.LaneLevels {
		res.LaneLevels[lane] = make([]int32, l.N)
	}
	out, err := search.Run(w, &opts.Common, func(c *comm.Comm) (rankOut, *search.Canceled) {
		e := newMultiEngine2D(c, stores[c.Rank()], l, opts, len(sources))
		recs, cxl := multiDrive(c, e, opts, newMultiState(res, l, c.Rank()))
		return rankOut{recs: recs, probes: e.probes, dist: -1}, cxl
	})
	if err != nil {
		return nil, err
	}
	return res, finish(&res.Result, l, &opts, out)
}
