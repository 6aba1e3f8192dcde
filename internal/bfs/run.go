package bfs

import (
	"fmt"
	"slices"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/search"
)

// The exported Run* entry points bind a store type to its engine
// constructor over three bodies — uni-directional, bi-directional,
// multi-source — which share search.Run's harness and the helpers
// below; the partitionings differ only inside the engines.

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
func checkRun[S search.Store](w *comm.World, stores []S, opts *Options, snapshots bool) (partition.View, error) {
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
type drive func(c *comm.Comm, e stepper, l partition.View, opts Options, levels []int32) ([]rankLevel, int64, *search.Canceled)

// runSides allocates the Result and runs drive on every rank's engine,
// each labeling its owned block of the Result's levels.
func runSides[S search.Store](w *comm.World, stores []S, l partition.View, opts Options, engine func(*comm.Comm, S, partition.View, Options) stepper, drive drive) (*Result, error) {
	res := &Result{Levels: make([]int32, l.N)}
	out, err := search.Run(w, &opts.Common, func(c *comm.Comm) (rankOut, *search.Canceled) {
		e := engine(c, stores[c.Rank()], l, opts)
		recs, dist, cxl := drive(c, e, l, opts, search.Owned(l, c.Rank(), res.Levels))
		return rankOut{recs: recs, probes: e.hashProbes(), dist: dist}, cxl
	})
	if err != nil {
		return nil, err
	}
	return res, finish(res, l, &opts, out)
}

// runUni is the uni-directional search (Algorithm 1 or 2 by engine).
func runUni[S search.Store](w *comm.World, stores []S, opts Options, engine func(*comm.Comm, S, partition.View, Options) stepper) (*Result, error) {
	l, err := checkRun(w, stores, &opts, true)
	if err != nil {
		return nil, err
	}
	if opts.HasTarget && opts.Source == opts.Target {
		return trivialResult(l, opts.Source), nil
	}
	return runSides(w, stores, l, opts, engine, driveUni)
}

// runBidir is the bi-directional search of §2.3: two level-synchronized
// searches, one from the source and one from the target, each level
// expanding whichever side has the smaller global frontier. The search
// stops as soon as the best meeting path is provably optimal, which
// keeps both frontiers small and — as the paper reports — cuts message
// volume by orders of magnitude relative to the uni-directional search.
//
// The returned Result carries the source side's levels; Distance is the
// exact s→t graph distance when Found.
func runBidir[S search.Store](w *comm.World, stores []S, opts Options, engine func(*comm.Comm, S, partition.View, Options) stepper) (*Result, error) {
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
	return runSides(w, stores, l, opts, engine, driveBidir)
}

// runMulti is the batched multi-source search. Direction is always
// top-down; the sent-neighbors cache does not apply (a vertex must be
// re-sent when it carries new lanes) and is ignored.
func runMulti[S search.Store](w *comm.World, stores []S, sources []graph.Vertex, opts Options, engine func(*comm.Comm, S, partition.View, Options, int) multiStepper) (*MultiResult, error) {
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
		e := engine(c, stores[c.Rank()], l, opts, len(sources))
		recs, cxl := multiDrive(c, e, opts, newMultiState(res, l, c.Rank()))
		return rankOut{recs: recs, probes: e.hashProbes(), dist: -1}, cxl
	})
	if err != nil {
		return nil, err
	}
	return res, finish(&res.Result, l, &opts, out)
}

// Run2D executes Algorithm 2 (or, with the mesh degenerate to R=1 or
// C=1, the 1D partitionings of Table 1) across the world. stores must
// come from partition.Build2D with P = w.P ranks.
func Run2D(w *comm.World, stores []*partition.Store2D, opts Options) (*Result, error) {
	return runUni(w, stores, opts, newEngine2D)
}

// Run1D executes Algorithm 1 across the world.
func Run1D(w *comm.World, stores []*partition.Store1D, opts Options) (*Result, error) {
	return runUni(w, stores, opts, newEngine1D)
}

// RunBidirectional2D executes the bi-directional search of §2.3 on the
// 2D partitioning.
func RunBidirectional2D(w *comm.World, stores []*partition.Store2D, opts Options) (*Result, error) {
	return runBidir(w, stores, opts, newEngine2D)
}

// RunBidirectional1D executes the §2.3 bi-directional search on the 1D
// partitioning (the paper notes either partitioning can host it).
func RunBidirectional1D(w *comm.World, stores []*partition.Store1D, opts Options) (*Result, error) {
	return runBidir(w, stores, opts, newEngine1D)
}

// MultiRun2D executes a batched multi-source BFS over the 2D edge
// partitioning (or a degenerate 1D mesh).
func MultiRun2D(w *comm.World, stores []*partition.Store2D, sources []graph.Vertex, opts Options) (*MultiResult, error) {
	return runMulti(w, stores, sources, opts, newMultiEngine2D)
}

// MultiRun1D executes a batched multi-source BFS over the dedicated 1D
// engine.
func MultiRun1D(w *comm.World, stores []*partition.Store1D, sources []graph.Vertex, opts Options) (*MultiResult, error) {
	return runMulti(w, stores, sources, opts, newMultiEngine1D)
}
