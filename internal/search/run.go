package search

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
)

// CheckShape validates what every run is handed before a World starts:
// one store per rank of w, laid out for w's rank count. fam prefixes
// the errors ("bfs", "sssp"). It returns the stores' layout.
func CheckShape(fam string, w *comm.World, stores []*partition.Store2D) (partition.View, error) {
	if len(stores) == 0 {
		return partition.View{}, fmt.Errorf("%s: no stores", fam)
	}
	if len(stores) != w.P {
		return partition.View{}, fmt.Errorf("%s: %d stores for world P=%d", fam, len(stores), w.P)
	}
	l := stores[0].View()
	if l.P() != w.P {
		return partition.View{}, fmt.Errorf("%s: layout P=%d for world P=%d", fam, l.P(), w.P)
	}
	return l, nil
}

// CheckVertex rejects a vertex outside [0, n); what names its role
// ("source", "target").
func CheckVertex(fam, what string, v graph.Vertex, n int) error {
	if int(v) >= n {
		return fmt.Errorf("%s: %s %d out of range for n=%d", fam, what, v, n)
	}
	return nil
}

// Outcome is what Run hands back from a finished World.
type Outcome[T any] struct {
	// PerRank holds what each rank's body returned.
	PerRank []T
	// Comms are the ranks' handles, for reading their ledgers.
	Comms []*comm.Comm
	// Wall is the real elapsed time of the simulation itself.
	Wall time.Duration
	// Canceled is non-nil when the ranks agreed to stop early: the
	// caller returns its partial result alongside it.
	Canceled *Canceled
}

// Run executes one distributed search on w: it installs the configured
// trace recorder and fault plan for the duration of the run (and
// removes them however the run ends), runs body once per rank, and
// collects the ranks' results and cancellations. A rank's panic comes
// back as the World's error.
func Run[T any](w *comm.World, o *Common, body func(c *comm.Comm) (T, *Canceled)) (Outcome[T], error) {
	perRank := make([]T, w.P)
	cancels := make([]*Canceled, w.P)
	w.SetTrace(o.Trace)
	defer w.SetTrace(nil)
	w.SetFault(o.Fault)
	defer w.SetFault(nil)
	start := time.Now()
	comms, err := w.Run(func(c *comm.Comm) {
		perRank[c.Rank()], cancels[c.Rank()] = body(c)
	})
	if err != nil {
		return Outcome[T]{}, err
	}
	return Outcome[T]{PerRank: perRank, Comms: comms, Wall: time.Since(start), Canceled: MergeCanceled(cancels)}, nil
}

// Err returns the run's cancellation as an error, nil when it finished.
func (o Outcome[T]) Err() error {
	if o.Canceled == nil {
		return nil
	}
	return o.Canceled
}

// Totals are the run-wide readings of the ranks' ledgers every family
// reports: the simulated clock, communication and hidden-communication
// maxima, the torus traffic sums and the merged fault activity.
type Totals struct {
	SimTime, SimComm, SimOverlap float64
	MsgsRecv, HopsRecv, HopBytes uint64
	Faults                       comm.FaultStats
}

// Totals merges the ranks' ledgers.
func (o Outcome[T]) Totals() Totals {
	t := Totals{
		SimTime:    comm.MaxClock(o.Comms),
		SimComm:    comm.MaxCommTime(o.Comms),
		SimOverlap: comm.MaxOverlapTime(o.Comms),
		Faults:     comm.MergeFaultStats(o.Comms),
	}
	for _, c := range o.Comms {
		t.MsgsRecv += c.MsgsRecv()
		t.HopsRecv += c.HopsRecv()
		t.HopBytes += c.HopBytes()
	}
	return t
}

// Owned returns rank's block [lo, hi) of an answer array over all n
// vertices (levels, distances). The entry points allocate the answer
// before the World starts and each rank initializes and writes only its
// own block — the owner is the only writer of its labels, as in the
// paper's distribution — so the ranks' writes never overlap and nothing
// is copied once the World finishes. The block's capacity ends at hi.
func Owned[T any](l partition.View, rank int, all []T) []T {
	lo, hi := l.OwnedRange(rank)
	return all[lo:hi:hi]
}
