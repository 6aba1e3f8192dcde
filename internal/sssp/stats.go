package sssp

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/trace"
)

// Phase labels one epoch's edge class.
type Phase int

const (
	// PhaseLight relaxes edges with weight <= Δ out of the current
	// bucket's active set; it repeats until the bucket stops refilling.
	PhaseLight Phase = iota
	// PhaseHeavy relaxes edges with weight > Δ out of everything the
	// bucket settled, exactly once per bucket.
	PhaseHeavy
)

func (p Phase) String() string {
	switch p {
	case PhaseLight:
		return "light"
	case PhaseHeavy:
		return "heavy"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// EpochStats aggregates one relaxation epoch (one global exchange
// round) across all ranks — the Δ-stepping mirror of bfs.LevelStats.
type EpochStats struct {
	Epoch        int32
	Bucket       uint32 // bucket index being drained
	Phase        Phase
	Active       int64 // vertices whose edges were relaxed this epoch
	ExpandWords  int64 // words received during the 2D column expand
	FoldWords    int64 // words received delivering relax requests
	Relaxations  int64 // tentative distances improved by owners
	ReSettles    int64 // active vertices relaxed again in the same bucket
	EdgesScanned int64
	// Containers histograms the request-set codec's choices this epoch.
	Containers frontier.ContainerHist

	// ExecS is the epoch's simulated execution time: the maximum over
	// ranks of the per-rank clock advance (critical path).
	ExecS float64
	// CommS sums the per-rank communication seconds charged during the
	// epoch, including any hidden under the asynchronous schedule;
	// OverlapS is the hidden subset (zero when Options.Async is off,
	// never above CommS).
	CommS    float64
	OverlapS float64
}

// HiddenFrac returns the fraction of the epoch's communication seconds
// the asynchronous schedule kept off the critical path.
func (es EpochStats) HiddenFrac() float64 {
	if es.CommS == 0 {
		return 0
	}
	return es.OverlapS / es.CommS
}

// Result reports a finished distributed Δ-stepping run.
type Result struct {
	N     int // graph vertices
	R, C  int // mesh (R = 1 under the conventional 1D partitioning)
	Delta uint32
	// Dist holds the shortest-path distance of every vertex from the
	// source (graph.MaxDist for unreachable vertices).
	Dist     []uint32
	PerEpoch []EpochStats

	// BucketsDrained counts non-empty buckets processed; Epochs counts
	// global exchange rounds (light sub-rounds plus heavy rounds).
	BucketsDrained int
	Epochs         int

	// Simulated times (seconds) from the torus cost model. SimOverlap is
	// the max per-rank communication time hidden under concurrent
	// activity by the asynchronous schedule (0 when Options.Async is
	// off); it never exceeds SimComm.
	SimTime    float64
	SimComm    float64
	SimOverlap float64
	Wall       time.Duration

	TotalExpandWords  int64
	TotalFoldWords    int64
	TotalRelaxations  int64
	TotalReSettles    int64
	TotalEdgesScanned int64
	Containers        frontier.ContainerHist

	// Link-level traffic totals from the torus mapping (see
	// bfs.Result for the meaning of each).
	MsgsRecv uint64
	HopsRecv uint64
	HopBytes uint64

	// Faults sums the per-rank transport-fault activity (see
	// bfs.Result.Faults; all zero on a clean wire).
	Faults comm.FaultStats

	// PerRank[rank] holds that rank's own per-epoch records (the
	// global PerEpoch is their sum).
	PerRank [][]EpochStats
}

// Reached returns the number of vertices with a finite distance.
func (r *Result) Reached() int {
	n := 0
	for _, d := range r.Dist {
		if d != graph.MaxDist {
			n++
		}
	}
	return n
}

// TotalWords returns all payload words moved (expand + fold).
func (r *Result) TotalWords() int64 { return r.TotalExpandWords + r.TotalFoldWords }

// MaxDistance returns the largest finite distance (0 if none).
func (r *Result) MaxDistance() uint32 {
	max := uint32(0)
	for _, d := range r.Dist {
		if d != graph.MaxDist && d > max {
			max = d
		}
	}
	return max
}

// epochRec is one rank's contribution to an epoch's statistics: the
// ledger every family keeps and Δ-stepping's own counters.
type epochRec struct {
	search.Step
	bucket    uint32
	phase     Phase
	active    int
	relax     int
	resettles int
}

// begin opens the epoch's span and ledger snapshot.
func (rec *epochRec) begin(c *comm.Comm, e *engine2D) search.StepTimer {
	return search.BeginStep(c, &e.hist, "epoch", rec.phase.String(), trace.Arg{Key: "bucket", Val: int64(rec.bucket)})
}

// end records the epoch's ledger deltas and closes its span.
func (rec *epochRec) end(tm search.StepTimer) {
	tm.End(&rec.Step,
		trace.Arg{Key: "active", Val: int64(rec.active)},
		trace.Arg{Key: "expand_words", Val: int64(rec.ExpandWords)},
		trace.Arg{Key: "fold_words", Val: int64(rec.FoldWords)},
		trace.Arg{Key: "relaxations", Val: int64(rec.relax)},
		trace.Arg{Key: "resettles", Val: int64(rec.resettles)},
		trace.Arg{Key: "edges", Val: int64(rec.Edges)},
	)
}

// mergeStats combines per-rank per-epoch records into global
// EpochStats and totals. Every rank participates in every epoch's
// collectives, so the records are aligned by construction.
func mergeStats(res *Result, out search.Outcome[rankOut]) {
	epochs := 0
	for _, r := range out.PerRank {
		epochs = max(epochs, len(r.recs))
	}
	res.Epochs = epochs
	res.PerEpoch = make([]EpochStats, epochs)
	for e := 0; e < epochs; e++ {
		res.PerEpoch[e].Epoch = int32(e)
	}
	res.PerRank = make([][]EpochStats, len(out.PerRank))
	for rank, r := range out.PerRank {
		res.PerRank[rank] = make([]EpochStats, len(r.recs))
		for e, s := range r.recs {
			res.PerRank[rank][e] = EpochStats{
				Epoch:        int32(e),
				Bucket:       s.bucket,
				Phase:        s.phase,
				Active:       int64(s.active),
				ExpandWords:  int64(s.ExpandWords),
				FoldWords:    int64(s.FoldWords),
				Relaxations:  int64(s.relax),
				ReSettles:    int64(s.resettles),
				EdgesScanned: int64(s.Edges),
				Containers:   s.Containers,
				ExecS:        s.ExecS,
				CommS:        s.CommS,
				OverlapS:     s.OverlapS,
			}
			es := &res.PerEpoch[e]
			es.Bucket = s.bucket // uniform across ranks by construction
			es.Phase = s.phase
			es.Active += int64(s.active)
			es.ExpandWords += int64(s.ExpandWords)
			es.FoldWords += int64(s.FoldWords)
			es.Relaxations += int64(s.relax)
			es.ReSettles += int64(s.resettles)
			es.EdgesScanned += int64(s.Edges)
			es.Containers.Add(s.Containers)
			if s.ExecS > es.ExecS {
				es.ExecS = s.ExecS // critical path: slowest rank
			}
			es.CommS += s.CommS
			es.OverlapS += s.OverlapS
		}
	}
	for _, es := range res.PerEpoch {
		res.TotalExpandWords += es.ExpandWords
		res.TotalFoldWords += es.FoldWords
		res.TotalRelaxations += es.Relaxations
		res.TotalReSettles += es.ReSettles
		res.TotalEdgesScanned += es.EdgesScanned
		res.Containers.Add(es.Containers)
	}
	t := out.Totals()
	res.SimTime, res.SimComm, res.SimOverlap = t.SimTime, t.SimComm, t.SimOverlap
	res.MsgsRecv, res.HopsRecv, res.HopBytes, res.Faults = t.MsgsRecv, t.HopsRecv, t.HopBytes, t.Faults
}
