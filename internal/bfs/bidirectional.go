package bfs

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/search"
)

// RunBidirectional2D executes the bi-directional search of §2.3 on the
// 2D partitioning: two level-synchronized searches, one from the source
// and one from the target, each level expanding whichever side has the
// smaller global frontier. The search stops as soon as the best meeting
// path is provably optimal, which keeps both frontiers small and — as
// the paper reports — cuts message volume by orders of magnitude
// relative to the uni-directional search.
//
// The returned Result carries the source side's levels; Distance is the
// exact s→t graph distance when Found.
func RunBidirectional2D(w *comm.World, stores []*partition.Store2D, opts Options) (*Result, error) {
	if !opts.HasTarget {
		return nil, fmt.Errorf("bfs: bi-directional search requires a target")
	}
	if len(stores) == 0 {
		return nil, fmt.Errorf("bfs: no stores")
	}
	l := stores[0].Layout
	if l.P() != w.P || len(stores) != w.P {
		return nil, fmt.Errorf("bfs: %d stores on layout P=%d for world P=%d", len(stores), l.P(), w.P)
	}
	if int(opts.Source) >= l.N || int(opts.Target) >= l.N {
		return nil, fmt.Errorf("bfs: endpoints (%d,%d) out of range for n=%d", opts.Source, opts.Target, l.N)
	}

	if err := validateRobustness(opts, false); err != nil {
		return nil, err
	}

	res := &Result{N: l.N, R: l.R, C: l.C}
	if opts.Source == opts.Target {
		return trivialResult(l.N, l.R, l.C, opts.Source), nil
	}

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
		e := newEngine2D(c, st, opts)
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
	res.Levels = assembleLevels(l, stores, localLevels)
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
