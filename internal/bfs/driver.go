package bfs

import (
	"fmt"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/search"
)

// chooseDirection picks a level's expansion direction from Beamer's
// true alpha heuristic: a level runs bottom-up when the edges a
// top-down expansion would scan (the frontier's out-degree, mf) exceed
// 1/alpha of the edges the bottom-up parent search would probe in the
// worst case (the unlabeled set's out-degree, mu). Both inputs are
// globally reduced, so every rank makes the same choice without extra
// communication. Compared to the vertex-count ratio this fires on
// degree-skewed frontiers and on the moderately sized frontiers of the
// bi-directional driver, where counting vertices never did.
func chooseDirection(opts Options, mf, mu uint64) Direction {
	switch opts.Direction {
	case TopDown:
		return TopDown
	case BottomUp:
		return BottomUp
	case DirectionOptimizing:
		// mu == 0 means the unlabeled remainder has no edges at all
		// (only isolated vertices are left): nothing can be labeled
		// either way, so stay with the paper's top-down expansion.
		if mu > 0 && float64(mf)*directionAlpha >= float64(mu) {
			return BottomUp
		}
		return TopDown
	default:
		panic(fmt.Sprintf("bfs: unknown direction policy %v", opts.Direction))
	}
}

// stepDir advances one level in the chosen direction. The steps stamp
// rec.dir themselves (before the level span closes, so the trace and the
// Result agree); a caller-side stamp here would land after the span's
// dir arg was already emitted.
func (e *engine2D) stepDir(s *sideState, dir Direction, tagBase int) (rankLevel, bool) {
	if dir == BottomUp {
		return e.stepBottomUp(s, tagBase)
	}
	return e.step(s, tagBase)
}

// driveUni runs a uni-directional level-synchronized search of side s
// — one source's or a batch's — to completion (empty global frontier),
// target discovery, the MaxLevels bound, or a cooperative cancellation
// (non-nil *search.Canceled — the side's levels hold the partial
// labeling). It returns the per-level records and the level the target
// was found at (globally agreed), -1 if it was not.
func driveUni(c *comm.Comm, e *engine2D, l partition.View, opts Options, s *sideState) ([]rankLevel, int64, *search.Canceled) {
	dirop := opts.Direction == DirectionOptimizing
	var recs []rankLevel
	// Every vertex joins the frontier exactly once, at the level it is
	// labeled, so subtracting each level frontier's out-degree tracks
	// the unlabeled set's out-degree with one extra reduction per
	// level. Fixed policies skip the degree machinery entirely.
	var unlabeledDeg uint64
	if opts.Restore != nil {
		// Resume from a snapshot: load engine + transport state into s and
		// skip the charged initialization (it already happened in the
		// checkpointing run and its cost is in the restored ledgers).
		opts.Resume(c, e.st, "bfs", opts.fingerprint(l, e.sources), func(dec *checkpoint.Dec) {
			unlabeledDeg = dec.U64()
			decodeSide(dec, s)
			e.restoreExtra(dec)
			recs = search.DecodeRecs(dec, decodeRankLevel)
		})
	} else if dirop {
		unlabeledDeg = c.AllReduceSum(e.totalOutDegree())
	}
	unit := "level"
	if s.batch != nil {
		unit = "sweep"
	}
	for {
		if opts.Checkpoint.Enabled() && opts.Restore == nil && int(s.level) == opts.Checkpoint.At {
			// Halt here: snapshot this rank's complete state at the top
			// of level At, before any of its reductions or exchanges.
			opts.Halt(c, e.st, "bfs", opts.fingerprint(l, e.sources), func(enc *checkpoint.Enc) {
				enc.U64(unlabeledDeg)
				encodeSide(enc, s)
				e.saveExtra(enc)
				search.EncodeRecs(enc, recs, encodeRankLevel)
			})
			return recs, -1, nil
		}
		if cxl := opts.Poll(c.AllReduceOr, c.Clock(), unit, int(s.level)); cxl != nil {
			return recs, -1, cxl
		}
		gf := c.AllReduceSum(uint64(s.F.Len()))
		if gf == 0 {
			return recs, -1, nil
		}
		var frontierDeg uint64
		if dirop {
			frontierDeg = c.AllReduceSum(e.frontierOutDegree(s))
			unlabeledDeg -= frontierDeg
		}
		if opts.MaxLevels > 0 && int(s.level) >= opts.MaxLevels {
			return recs, -1, nil
		}
		dir := chooseDirection(opts, frontierDeg, unlabeledDeg)
		rec, foundLocal := e.stepDir(s, dir, int(s.level)*64)
		recs = append(recs, rec)
		if opts.HasTarget && c.AllReduceOr(foundLocal) {
			return recs, int64(s.level), nil // labeled at the last completed level
		}
	}
}

// bidirInf is the "no path found yet" sentinel for the bi-directional
// driver's best-distance reduction.
const bidirInf = uint64(math.MaxUint32)

// meetDist is the reduction's value as a distance, -1 for the sentinel.
func meetDist(best uint64) int64 {
	if best == bidirInf {
		return -1
	}
	return int64(best)
}

// driveBidir runs the §2.3 bi-directional search: two sides expand
// alternately (always the side with the smaller global frontier), meets
// are detected when a side labels a vertex the other side already
// labeled, and the search stops once the best meeting distance is
// provably optimal (any undiscovered path must exceed the sum of the
// completed levels), either side exhausts, or a cooperative
// cancellation fires. ss is the source side; the target side labels
// privately. It returns the records and the best distance (-1 if none).
func driveBidir(c *comm.Comm, e *engine2D, l partition.View, opts Options, ss *sideState) ([]rankLevel, int64, *search.Canceled) {
	lo, _ := l.OwnedRange(c.Rank())
	ts := e.newSide(opts.Target, nil)
	dirop := opts.Direction == DirectionOptimizing
	var recs []rankLevel
	best := bidirInf
	tagSeq := 0
	// Per-side out-degree tracking for the direction policy: a side's
	// current frontier degree is reduced once, the first time the side
	// is examined after it steps, and leaves that side's unlabeled
	// degree at the same moment. Each side labels its own vertices, so
	// the sides track independent unlabeled sets.
	var unS, unT, degS, degT uint64
	if dirop {
		total := c.AllReduceSum(e.totalOutDegree())
		unS, unT = total, total
	}
	newS, newT := true, true
	for {
		if cxl := opts.Poll(c.AllReduceOr, c.Clock(), "level", len(recs)); cxl != nil {
			return recs, meetDist(best), cxl
		}
		gfs := c.AllReduceSum(uint64(ss.F.Len()))
		gft := c.AllReduceSum(uint64(ts.F.Len()))
		if dirop && newS {
			degS = c.AllReduceSum(e.frontierOutDegree(ss))
			unS -= degS
		}
		if dirop && newT {
			degT = c.AllReduceSum(e.frontierOutDegree(ts))
			unT -= degT
		}
		newS, newT = false, false
		exhausted := gfs == 0 || gft == 0
		proven := best != bidirInf && best <= uint64(ss.level)+uint64(ts.level)
		if exhausted || proven {
			return recs, meetDist(best), nil
		}
		if opts.MaxLevels > 0 && int(ss.level+ts.level) >= opts.MaxLevels {
			return recs, meetDist(best), nil
		}
		side, mf, mu := ss, degS, unS
		if gft < gfs {
			side, mf, mu = ts, degT, unT
		}
		other := ts
		if side == ts {
			other = ss
		}
		dir := chooseDirection(opts, mf, mu)
		rec, _ := e.stepDir(side, dir, tagSeq*64)
		if side == ss {
			newS = true
		} else {
			newT = true
		}
		tagSeq++
		side.F.Iterate(func(gu uint32) {
			li := gu - uint32(lo)
			if other.L[li] != graph.Unreached {
				cand := uint64(side.L[li]) + uint64(other.L[li])
				if cand < best {
					best = cand
				}
			}
		})
		best = c.AllReduceMin(best)
		recs = append(recs, rec)
	}
}
