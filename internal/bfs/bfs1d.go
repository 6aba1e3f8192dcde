package bfs

import (
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/localindex"
	"repro/internal/partition"
	"repro/internal/pool"
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

func newEngine1D(c *comm.Comm, st *partition.Store1D, l partition.View, opts Options) stepper {
	c.SetCores(opts.Cores)
	e := &engine1D{c: c, st: st, opts: opts, model: c.Model(), world: c.WorldGroup(), pl: pool.New(opts.Workers)}
	e.bins = newSetBins(c, e.world, l, &e.opts, e.pl, &e.hist)
	return e
}

func (e *engine1D) newSide(src graph.Vertex, L []int32) *sideState {
	s := newSideState(e.st.Lo, e.st.OwnedCount(), L)
	if src >= e.st.Lo && src < e.st.Hi {
		s.L[e.st.LocalOf(src)] = 0
		s.F.Add(uint32(src))
	}
	if e.opts.SentCache {
		s.sent = localindex.NewBitset(e.st.TargetCount)
	}
	return s
}

// hashProbes returns the probes the scans have made so far.
func (e *engine1D) hashProbes() uint64 { return e.probes }

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
// into per-owner bins (steps 7–9), fold (steps 8–13), mark (14–16). The
// scan precedes the fold entirely (1D has no expand), so the overlapped
// schedule's win is the pipelined fold — per-bin merges interleave with
// the posts, and all P-1 transfers fly concurrently instead of one
// transit per pairwise step.
func (e *engine1D) step(s *sideState, tagBase int) (rankLevel, bool) {
	tm := beginLevel(e.c, &e.hist)
	rec := rankLevel{frontier: s.F.Len()}
	rec.Edges = e.scanFrontier(s)
	foundTarget := s.mark(e.opts, e.st.Lo, e.bins.fold(tagBase, &rec), &rec)
	rec.end(tm)
	return rec, foundTarget
}
