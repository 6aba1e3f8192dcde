package bfs

import (
	"time"

	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/trace"
)

// LevelStats aggregates one BFS level's activity across all ranks.
type LevelStats struct {
	Level        int32
	Direction    Direction // how the level was expanded (globally uniform)
	Frontier     int64     // global frontier size entering the level
	ExpandWords  int64     // words received during expand, summed over ranks
	FoldWords    int64     // words received during fold, summed over ranks
	Dups         int64     // duplicate vertices eliminated by union folds
	Marked       int64     // vertices newly labeled this level
	EdgesScanned int64     // edge-list entries inspected, summed over ranks
	// Containers histograms the wire codec's payload and chunk-container
	// choices this level (all-zero unless a codec-bearing Wire mode ran).
	Containers frontier.ContainerHist

	// ExecS is the level's simulated execution time: the maximum over
	// ranks of the per-rank clock advance during the level (the level's
	// critical path; reductions between levels are not attributed).
	ExecS float64
	// CommS sums the per-rank communication seconds charged during the
	// level — including any hidden under the asynchronous schedule.
	CommS float64
	// OverlapS sums the per-rank communication seconds that progressed
	// concurrently with compute (or other transfers) instead of
	// serializing into the clock. Zero on the synchronous schedule;
	// never exceeds CommS.
	OverlapS float64
}

// HiddenFrac returns the fraction of the level's communication seconds
// the asynchronous schedule kept off the critical path.
func (ls LevelStats) HiddenFrac() float64 {
	if ls.CommS == 0 {
		return 0
	}
	return ls.OverlapS / ls.CommS
}

// Result reports a finished distributed search.
type Result struct {
	N        int // graph vertices
	R, C     int // mesh (R = 1 under the conventional 1D partitioning)
	Levels   []int32
	PerLevel []LevelStats

	// Simulated times (seconds) from the torus cost model: max over
	// ranks of the per-rank clocks / communication ledgers. SimOverlap
	// is the max per-rank communication time hidden under concurrent
	// activity by the asynchronous schedule (0 when Options.Async is
	// off); it never exceeds SimComm.
	SimTime    float64
	SimComm    float64
	SimOverlap float64
	// Wall is the real elapsed time of the simulation itself (not a
	// paper-comparable quantity on a shared-memory host).
	Wall time.Duration

	Found    bool  // target labeled (always false without a target)
	Distance int32 // source→target distance when Found

	TotalExpandWords int64
	TotalFoldWords   int64
	TotalDups        int64
	// Containers sums the per-level wire-codec histograms: how many
	// payloads shipped raw, as whole-universe bitmaps, or as hybrid
	// chunk streams, and which container each encoded chunk chose.
	Containers frontier.ContainerHist
	// TotalEdgesScanned counts edge-list entries inspected across all
	// ranks and levels — the quantity direction-optimizing traversal
	// shrinks (bottom-up levels stop at the first frontier parent).
	TotalEdgesScanned int64
	HashProbes        uint64 // global->local probes during the search

	// Link-level traffic totals from the torus mapping: messages
	// received, their hop counts, and bytes x hops (the load the
	// search imposed on torus links — the Figure 1 task mapping is
	// judged by this).
	MsgsRecv uint64
	HopsRecv uint64
	HopBytes uint64
	// MaxLinkBytes is the heaviest-loaded directed torus link's byte
	// count (congestion hot spot); LinksUsed counts distinct links.
	MaxLinkBytes uint64
	LinksUsed    int

	// Faults sums the per-rank transport-fault activity: injections,
	// retries, checksum failures, duplicate discards, and the simulated
	// seconds recovery added (all zero on a clean wire). Everything
	// else in the Result is identical to the fault-free run for any
	// plan below the retry budget.
	Faults comm.FaultStats

	// PerRank[rank] holds that rank's own per-level statistics (the
	// global PerLevel is their sum). §2 requires the partitioning to
	// balance vertices and edges across ranks; LoadImbalance quantifies
	// how well that held during the search.
	PerRank [][]LevelStats
}

// AvgHopsPerMessage returns mean torus hops per received message.
func (r *Result) AvgHopsPerMessage() float64 {
	if r.MsgsRecv == 0 {
		return 0
	}
	return float64(r.HopsRecv) / float64(r.MsgsRecv)
}

// RedundancyRatio returns the paper's Fig. 7 metric: duplicate vertices
// eliminated by the union-fold divided by total vertices received in
// folds, as a percentage.
func (r *Result) RedundancyRatio() float64 {
	if r.TotalFoldWords+r.TotalDups == 0 {
		return 0
	}
	// Dups never reach RecvWords under in-flight union; the "received"
	// denominator of the paper counts what a processor would have had
	// to process, i.e. delivered words; we report eliminated/(eliminated+delivered).
	return 100 * float64(r.TotalDups) / float64(r.TotalDups+r.TotalFoldWords)
}

// AvgExpandWordsPerLevel returns the per-rank, per-level average expand
// message length (Table 1's "Avg. Message Length per Level", expand).
func (r *Result) AvgExpandWordsPerLevel(p int) float64 {
	if len(r.PerLevel) == 0 {
		return 0
	}
	return float64(r.TotalExpandWords) / float64(p) / float64(len(r.PerLevel))
}

// AvgFoldWordsPerLevel returns the fold counterpart of
// AvgExpandWordsPerLevel.
func (r *Result) AvgFoldWordsPerLevel(p int) float64 {
	if len(r.PerLevel) == 0 {
		return 0
	}
	return float64(r.TotalFoldWords) / float64(p) / float64(len(r.PerLevel))
}

// LoadImbalance returns max/mean of the per-rank totals of newly
// labeled vertices over the whole search — 1.0 is perfect balance. For
// blocked partitionings of Poisson random graphs this stays close to 1
// (the balance assumption of §2); skewed inputs need graph.Relabel.
func (r *Result) LoadImbalance() float64 {
	if len(r.PerRank) == 0 {
		return 0
	}
	totals := make([]float64, len(r.PerRank))
	var sum, max float64
	for i, recs := range r.PerRank {
		for _, ls := range recs {
			totals[i] += float64(ls.Marked)
		}
		sum += totals[i]
		if totals[i] > max {
			max = totals[i]
		}
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(r.PerRank)))
}

// MaxLevel returns the deepest level labeled.
func (r *Result) MaxLevel() int32 {
	max := int32(0)
	for _, l := range r.Levels {
		if l > max {
			max = l
		}
	}
	return max
}

// Reached returns the number of labeled vertices.
func (r *Result) Reached() int {
	n := 0
	for _, l := range r.Levels {
		if l != graph.Unreached {
			n++
		}
	}
	return n
}

// rankLevel is one rank's contribution to a level's statistics: the
// ledger every family keeps and BFS's own counters.
type rankLevel struct {
	search.Step
	dir      Direction
	frontier int
	dups     int
	marked   int
}

// beginLevel opens a level's (or sweep's) span and ledger snapshot.
func beginLevel(c *comm.Comm, hist *frontier.ContainerHist) search.StepTimer {
	return search.BeginStep(c, hist, "level", "level")
}

// end records the level's ledger deltas and closes its span.
func (rec *rankLevel) end(tm search.StepTimer) {
	tm.End(&rec.Step,
		trace.Arg{Key: "dir", Val: int64(rec.dir)},
		trace.Arg{Key: "frontier", Val: int64(rec.frontier)},
		trace.Arg{Key: "expand_words", Val: int64(rec.ExpandWords)},
		trace.Arg{Key: "fold_words", Val: int64(rec.FoldWords)},
		trace.Arg{Key: "dups", Val: int64(rec.dups)},
		trace.Arg{Key: "marked", Val: int64(rec.marked)},
		trace.Arg{Key: "edges", Val: int64(rec.Edges)},
	)
}

// mergeStats combines per-rank per-level records into global LevelStats
// and totals on a Result.
func mergeStats(res *Result, out search.Outcome[rankOut]) {
	levels := 0
	for _, r := range out.PerRank {
		levels = max(levels, len(r.recs))
	}
	res.PerLevel = make([]LevelStats, levels)
	for l := 0; l < levels; l++ {
		res.PerLevel[l].Level = int32(l)
	}
	res.PerRank = make([][]LevelStats, len(out.PerRank))
	for rank, r := range out.PerRank {
		res.PerRank[rank] = make([]LevelStats, len(r.recs))
		for l, s := range r.recs {
			res.PerRank[rank][l] = LevelStats{
				Level:        int32(l),
				Direction:    s.dir,
				Frontier:     int64(s.frontier),
				ExpandWords:  int64(s.ExpandWords),
				FoldWords:    int64(s.FoldWords),
				Dups:         int64(s.dups),
				Marked:       int64(s.marked),
				EdgesScanned: int64(s.Edges),
				Containers:   s.Containers,
				ExecS:        s.ExecS,
				CommS:        s.CommS,
				OverlapS:     s.OverlapS,
			}
			ls := &res.PerLevel[l]
			ls.Direction = s.dir // uniform across ranks by construction
			ls.Frontier += int64(s.frontier)
			ls.ExpandWords += int64(s.ExpandWords)
			ls.FoldWords += int64(s.FoldWords)
			ls.Dups += int64(s.dups)
			ls.Marked += int64(s.marked)
			ls.EdgesScanned += int64(s.Edges)
			ls.Containers.Add(s.Containers)
			if s.ExecS > ls.ExecS {
				ls.ExecS = s.ExecS // critical path: slowest rank
			}
			ls.CommS += s.CommS
			ls.OverlapS += s.OverlapS
		}
	}
	for _, ls := range res.PerLevel {
		res.TotalExpandWords += ls.ExpandWords
		res.TotalFoldWords += ls.FoldWords
		res.TotalDups += ls.Dups
		res.TotalEdgesScanned += ls.EdgesScanned
		res.Containers.Add(ls.Containers)
	}
	t := out.Totals()
	res.SimTime, res.SimComm, res.SimOverlap = t.SimTime, t.SimComm, t.SimOverlap
	res.MsgsRecv, res.HopsRecv, res.HopBytes, res.Faults = t.MsgsRecv, t.HopsRecv, t.HopBytes, t.Faults
	res.MaxLinkBytes, _, res.LinksUsed = comm.LinkLoads(out.Comms)
}
