package bfs

import (
	"fmt"
	"time"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/localindex"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/search"
	"repro/internal/torus"
)

// engine1D holds one rank's state for Algorithm 1: distributed
// breadth-first expansion with the conventional 1D vertex partitioning.
// Every rank owns a vertex block with full edge lists; each level
// merges the frontier's edge lists into the neighbor set N and delivers
// N to the owners with a single collective over all P ranks (the fold;
// 1D has no expand).
//
// This is an independent implementation kept alongside the R=1
// degenerate case of the 2D engine; the two are differentially tested
// against each other and against the serial oracle.
type engine1D struct {
	c     *comm.Comm
	st    *partition.Store1D
	opts  Options
	model torus.CostModel
	world comm.Group
	// pl is the per-rank worker pool the hot local loops run on; see
	// parallel.go for the determinism contract.
	pl *pool.Pool

	// hist tallies the wire codec's container choices; per-level deltas
	// land in rankLevel.containers.
	hist frontier.ContainerHist
	// degTotal caches the owned degree sum for the direction heuristic
	// (1D stores hold full edge lists, so degrees are local).
	degTotal    uint64
	degComputed bool
	// probes counts this run's hash probes (a restore seeds it with the
	// checkpointed run's); the store itself is read-only.
	probes uint64
	// bins is the per-run scratch of the neighbor merge (see combine.go).
	bins *setBins
}

func newEngine1D(c *comm.Comm, st *partition.Store1D, opts Options) *engine1D {
	g := comm.Group{Ranks: make([]int, c.Size()), Me: c.Rank()}
	for i := range g.Ranks {
		g.Ranks[i] = i
	}
	c.SetCores(opts.Cores)
	return &engine1D{c: c, st: st, opts: opts, model: c.Model(), world: g,
		pl:   pool.New(opts.Workers),
		bins: newSetBins(c, g, st.Layout.BlockSize(), st.Layout.OwnedRange)}
}

func (e *engine1D) newSide(src graph.Vertex) *sideState {
	s := newSideState(e.opts, e.st.Lo, e.st.OwnedCount())
	if src >= e.st.Lo && src < e.st.Hi {
		s.L[e.st.LocalOf(src)] = 0
		s.F.Add(uint32(src))
	}
	if e.opts.SentCache {
		s.sent = localindex.NewBitset(e.st.TargetCount)
	}
	return s
}

// universe returns the global vertex count.
func (e *engine1D) universe() int { return e.st.Layout.N }

// totalOutDegree returns this rank's owned vertices' degree sum.
func (e *engine1D) totalOutDegree() uint64 {
	if !e.degComputed {
		for li := 0; li < e.st.OwnedCount(); li++ {
			e.degTotal += uint64(len(e.st.Neighbors(uint32(li))))
		}
		e.degComputed = true
	}
	return e.degTotal
}

// frontierOutDegree returns the degree sum over s's frontier — the
// edges a top-down expansion of it would scan, globally once reduced.
func (e *engine1D) frontierOutDegree(s *sideState) uint64 {
	var sum uint64
	s.F.Iterate(func(gv uint32) {
		sum += uint64(len(e.st.Neighbors(e.st.LocalOf(graph.Vertex(gv)))))
	})
	return sum
}

// step runs one complete Algorithm 1 level: merge frontier edge lists
// into per-owner bins (steps 7–9), fold (steps 8–13), mark (14–16).
func (e *engine1D) step(s *sideState, tagBase int) (rankLevel, bool) {
	if e.opts.Async {
		return e.stepAsync(s, tagBase)
	}
	return e.stepSync(s, tagBase)
}

// stepSync is the phase-synchronous Algorithm 1 level.
func (e *engine1D) stepSync(s *sideState, tagBase int) (rankLevel, bool) {
	tm := newLevelTimer(e.c)
	h0 := e.hist
	rec := rankLevel{frontier: s.F.Len()}
	rec.edges = e.scanFrontier(s)
	bins := e.bins.sets()

	o := collective.Opts{Tag: tagBase, Chunk: e.opts.ChunkWords}
	o.Codec = foldCodec(e.c.Tracer(), e.pl, e.opts.Wire, e.world, e.st.Layout.OwnedRange, &e.hist)
	nbar, fst := syncFold(e.c, e.world, o, e.opts.Fold, bins)
	rec.foldWords = fst.RecvWords
	rec.dups = fst.Dups

	e.c.ChargeItems(len(nbar), e.model.VertexCost)
	foundTarget := s.mark(e.opts, e.st.Lo, nbar, &rec)
	rec.containers = e.hist.Sub(h0)
	tm.record(&rec)
	return rec, foundTarget
}

// validate1D checks a 1D run's inputs.
func validate1D(w *comm.World, stores []*partition.Store1D, opts Options) (*partition.Layout1D, error) {
	if len(stores) == 0 {
		return nil, fmt.Errorf("bfs: no stores")
	}
	l := stores[0].Layout
	if l.P != w.P || len(stores) != w.P {
		return nil, fmt.Errorf("bfs: %d stores on layout P=%d for world P=%d", len(stores), l.P, w.P)
	}
	if int(opts.Source) >= l.N {
		return nil, fmt.Errorf("bfs: source %d out of range for n=%d", opts.Source, l.N)
	}
	if opts.HasTarget && int(opts.Target) >= l.N {
		return nil, fmt.Errorf("bfs: target %d out of range for n=%d", opts.Target, l.N)
	}
	return l, nil
}

// trivialResult handles the source==target case without communication.
func trivialResult(n int, r, c int, source graph.Vertex) *Result {
	res := &Result{N: n, R: r, C: c, Found: true}
	res.Levels = make([]int32, n)
	for i := range res.Levels {
		res.Levels[i] = graph.Unreached
	}
	res.Levels[source] = 0
	return res
}

// Run1D executes Algorithm 1 across the world.
func Run1D(w *comm.World, stores []*partition.Store1D, opts Options) (*Result, error) {
	l, err := validate1D(w, stores, opts)
	if err != nil {
		return nil, err
	}
	if err := validateRobustness(opts, true); err != nil {
		return nil, err
	}
	if opts.HasTarget && opts.Source == opts.Target {
		return trivialResult(l.N, 1, l.P, opts.Source), nil
	}

	res := &Result{N: l.N, R: 1, C: l.P}
	perRank := make([][]rankLevel, w.P)
	localLevels := make([][]int32, w.P)
	probes := make([]uint64, w.P)
	var foundAt int32 = -1
	w.SetTrace(opts.Trace)
	defer w.SetTrace(nil)
	w.SetFault(opts.Fault)
	defer w.SetFault(nil)
	start := time.Now()
	cancels := make([]*search.Canceled, w.P)
	comms, err := w.Run(func(c *comm.Comm) {
		st := stores[c.Rank()]
		e := newEngine1D(c, st, opts)
		recs, s, found, cxl := driveUni(c, e, opts)
		perRank[c.Rank()] = recs
		localLevels[c.Rank()] = s.L
		probes[c.Rank()] = e.probes
		cancels[c.Rank()] = cxl
		if found && c.Rank() == 0 {
			foundAt = s.level
		}
	})
	if err != nil {
		return nil, err
	}
	res.Wall = time.Since(start)
	mergeStats(res, perRank, comms)
	for _, p := range probes {
		res.HashProbes += p
	}
	res.Levels = make([]int32, l.N)
	for r, st := range stores {
		copy(res.Levels[int(st.Lo):int(st.Lo)+st.OwnedCount()], localLevels[r])
	}
	if opts.HasTarget && foundAt >= 0 {
		res.Found = true
		res.Distance = foundAt
	}
	publishMetrics(opts.Metrics, res)
	if cxl := search.MergeCanceled(cancels); cxl != nil {
		return res, cxl
	}
	return res, nil
}

// RunBidirectional1D executes the §2.3 bi-directional search on the 1D
// partitioning (the paper notes either partitioning can host it).
func RunBidirectional1D(w *comm.World, stores []*partition.Store1D, opts Options) (*Result, error) {
	if !opts.HasTarget {
		return nil, fmt.Errorf("bfs: bi-directional search requires a target")
	}
	l, err := validate1D(w, stores, opts)
	if err != nil {
		return nil, err
	}
	if err := validateRobustness(opts, false); err != nil {
		return nil, err
	}
	if opts.Source == opts.Target {
		return trivialResult(l.N, 1, l.P, opts.Source), nil
	}

	res := &Result{N: l.N, R: 1, C: l.P}
	perRank := make([][]rankLevel, w.P)
	localLevels := make([][]int32, w.P)
	probes := make([]uint64, w.P)
	var globalBest int64 = -1
	w.SetTrace(opts.Trace)
	defer w.SetTrace(nil)
	w.SetFault(opts.Fault)
	defer w.SetFault(nil)
	start := time.Now()
	cancels := make([]*search.Canceled, w.P)
	comms, err := w.Run(func(c *comm.Comm) {
		st := stores[c.Rank()]
		e := newEngine1D(c, st, opts)
		recs, ss, best, cxl := driveBidir(c, e, st, opts)
		perRank[c.Rank()] = recs
		localLevels[c.Rank()] = ss.L
		probes[c.Rank()] = e.probes
		cancels[c.Rank()] = cxl
		if c.Rank() == 0 && best != bidirInf {
			globalBest = int64(best)
		}
	})
	if err != nil {
		return nil, err
	}
	res.Wall = time.Since(start)
	mergeStats(res, perRank, comms)
	for _, p := range probes {
		res.HashProbes += p
	}
	res.Levels = make([]int32, l.N)
	for r, st := range stores {
		copy(res.Levels[int(st.Lo):int(st.Lo)+st.OwnedCount()], localLevels[r])
	}
	if globalBest >= 0 {
		res.Found = true
		res.Distance = int32(globalBest)
	}
	publishMetrics(opts.Metrics, res)
	if cxl := search.MergeCanceled(cancels); cxl != nil {
		return res, cxl
	}
	return res, nil
}
