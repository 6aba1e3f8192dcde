package bfs

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/frontier"
)

// Overlapped (asynchronous) level schedules. Every exchange posts its
// sends before any wait and streams received parts straight into the
// hash-probe scan as they complete, so the wire time of the parts still
// in flight hides under the scan compute that dominates the §4.2
// profile — and the fold's sends post per bin, as each bin finishes its
// merge, instead of after the whole merge. Results are identical
// to the synchronous path (the scans, unions, min-merges, and OR-merges
// are order-insensitive, and the sent-neighbors cache admits each
// vertex exactly once in any order); only the simulated clock — and the
// OverlapS ledger — changes.

// foldAlgKey maps a FoldAlg onto collective.FoldAsync's dispatcher key.
func foldAlgKey(a FoldAlg) string {
	switch a {
	case FoldDirect:
		return "direct"
	case FoldTwoPhase:
		return "twophase"
	case FoldTwoPhaseNoUnion:
		return "twophase-nounion"
	case FoldBruck:
		return "bruck"
	default:
		panic(fmt.Sprintf("bfs: unknown fold algorithm %v", a))
	}
}

// expandAsync posts the expand with the pipelined schedule, streaming
// every part — this rank's own portion first — through handle.
func (e *engine2D) expandAsync(s *sideState, tag int, handle collective.Handle) collective.Stats {
	o := collective.Opts{Tag: tag, Chunk: e.opts.ChunkWords, Async: true}
	switch e.opts.Expand {
	case ExpandTargeted:
		send := e.targetRows(s)
		prep := func(i int) []uint32 {
			if i == e.colG.Me {
				return send[i] // stays local, unencoded
			}
			return e.expandWire(send[i])
		}
		return collective.Exchange(e.c, e.colG, o, prep, handle)
	case ExpandAllGather:
		_, st := collective.AllGatherAsync(e.c, e.colG, o, e.wireFrontier(s.F), handle)
		return st
	case ExpandTwoPhase:
		o.BundleMerge = e.expandBundleMerge()
		_, st := collective.TwoPhaseExpandAsync(e.c, e.colG, o, e.wireFrontier(s.F), handle)
		return st
	default:
		panic(fmt.Sprintf("bfs: unknown expand algorithm %v", e.opts.Expand))
	}
}

// stepAsync is the overlapped top-down level: each expand part's
// hash-probe scan runs while the remaining parts are on the wire, and
// the fold's sends post per merged bin.
func (e *engine2D) stepAsync(s *sideState, tagBase int) (rankLevel, bool) {
	tm := newLevelTimer(e.c)
	h0 := e.hist
	rec := rankLevel{frontier: s.F.Len()}
	bins := e.bins.raw
	scan := func(m int, part []uint32) {
		// Mirror expandUnwire: WireSparse parts are raw id lists that never
		// saw the sentinel guard, so they must not go through Decode.
		if e.opts.Wire != frontier.WireSparse {
			part = frontier.DecodePar(e.pl, part) // no-op on raw lists and local parts
		}
		e.c.ChargeItemsPar(len(part), e.model.VertexCost)
		rec.edges += e.scanPart(s, part, bins)
	}
	est := e.expandAsync(s, tagBase, scan)
	rec.expandWords = est.RecvWords

	o := collective.Opts{Tag: tagBase + 1<<24, Chunk: e.opts.ChunkWords, Async: true}
	o.Codec = foldCodec(e.c.Tracer(), e.pl, e.opts.Wire, e.rowG, e.st.Layout.OwnedRange, &e.hist)
	nbar, fst := collective.FoldAsync(e.c, e.rowG, o, foldAlgKey(e.opts.Fold), e.bins.set)
	rec.foldWords = fst.RecvWords
	rec.dups = fst.Dups

	e.c.ChargeItems(len(nbar), e.model.VertexCost)
	foundTarget := s.mark(e.opts, e.st.Lo, nbar, &rec)
	rec.containers = e.hist.Sub(h0)
	tm.record(&rec)
	return rec, foundTarget
}

// stepAsync is the overlapped Algorithm 1 level: the scan precedes the
// fold entirely (1D has no expand), so the win is the pipelined fold —
// per-bin merges interleave with the posts, and all P-1 transfers
// fly concurrently instead of one transit per pairwise step.
func (e *engine1D) stepAsync(s *sideState, tagBase int) (rankLevel, bool) {
	tm := newLevelTimer(e.c)
	h0 := e.hist
	rec := rankLevel{frontier: s.F.Len()}
	rec.edges = e.scanFrontier(s)

	o := collective.Opts{Tag: tagBase, Chunk: e.opts.ChunkWords, Async: true}
	o.Codec = foldCodec(e.c.Tracer(), e.pl, e.opts.Wire, e.world, e.st.Layout.OwnedRange, &e.hist)
	nbar, fst := collective.FoldAsync(e.c, e.world, o, foldAlgKey(e.opts.Fold), e.bins.set)
	rec.foldWords = fst.RecvWords
	rec.dups = fst.Dups

	e.c.ChargeItems(len(nbar), e.model.VertexCost)
	foundTarget := s.mark(e.opts, e.st.Lo, nbar, &rec)
	rec.containers = e.hist.Sub(h0)
	tm.record(&rec)
	return rec, foundTarget
}
