package bfs

import (
	"repro/internal/collective"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/pool"
)

// Bottom-up level expansion (the direction-optimizing complement to the
// paper's top-down Algorithms 1 and 2): instead of the frontier pushing
// its neighbors to their owners, every still-unlabeled vertex searches
// its own edge list for a parent already in the frontier and stops at
// the first hit. Communication is dense bitmaps with per-level volume
// fixed by the partitioning (independent of frontier size) — unless
// Options.Wire is WireHybrid, in which case every bitmap payload is
// re-encoded through the chunked container codec and sparse or
// clustered bitmaps collapse to a fraction of their raw width.

// wireBits encodes a bitmap payload over an n-bit universe for the
// wire under the configured encoding (the identity except under
// WireHybrid).
func wireBits(p *pool.Pool, opts Options, h *frontier.ContainerHist, words []uint32, n int) []uint32 {
	return frontier.EncodeBitsPar(p, words, n, opts.Wire, h)
}

// unwireBitPieces restores gathered bitmap pieces in place; piece i
// covers universe size widths(i).
func unwireBitPieces(p *pool.Pool, opts Options, pieces [][]uint32, widths func(i int) int) {
	if opts.Wire != frontier.WireHybrid {
		return
	}
	for i := range pieces {
		pieces[i] = frontier.DecodeBitsPar(p, pieces[i], widths(i))
	}
}

// stepBottomUp runs one bottom-up level:
//
//  1. Processor-row all-gather of owned-frontier bitmaps — the owners
//     of every vertex appearing in my partial edge lists are exactly my
//     processor row, so afterwards I can test any row vertex for
//     frontier membership.
//  2. Processor-column all-gather of unlabeled-owned bitmaps — my
//     processor column collectively owns every vertex whose partial
//     lists this column stores.
//  3. Local scan: for each still-unlabeled vertex with a non-empty
//     partial list here, stop at the first frontier parent and claim it
//     for its owner.
//  4. Processor-column OR-reduce-scatter of the claim bitmaps back to
//     the owners, which mark and build the next frontier.
//
// With a one-member processor column (R = 1) steps 2 and 4 are the
// identity: the scan reads the unlabeled vertices from the levels and
// labels them in place, as Algorithm 1's bottom-up level would.
//
// Under WireHybrid all three bitmap exchanges carry container-encoded
// payloads (the gathers at the caller edges, the claims through
// collective.Opts.Codec).
func (e *engine2D) stepBottomUp(s *sideState, tagBase int) (rankLevel, bool) {
	tm := beginLevel(e.c, &e.hist)
	l := e.st.Layout
	// dir is stamped here, not by the caller: the level span closes
	// inside rec.end with rec.dir as its arg.
	rec := rankLevel{dir: BottomUp, frontier: s.F.Len()}
	column := e.colG.Size() > 1

	// Each received piece is charged as the exchange hands it over (the
	// self piece stays local and costs nothing).
	chargeRecv := func(me int) collective.Handle {
		return func(m int, piece []uint32) {
			if m != me {
				e.c.ChargeItems(len(piece), e.model.VertexCost)
			}
		}
	}

	o := collective.Opts{Tag: tagBase, Chunk: e.opts.ChunkWords, Async: e.opts.Async}
	fSend := wireBits(e.pl, e.opts, &e.hist, frontier.Bits(s.F), e.st.OwnedCount())
	fPieces, fst := collective.Gather(e.c, e.rowG, o, "allgather", fSend, chargeRecv(e.rowG.Me))
	unwireBitPieces(e.pl, e.opts, fPieces, func(i int) int { return l.OwnedCount(e.rowG.Ranks[i]) })
	rec.ExpandWords = fst.RecvWords

	var uPieces, claims [][]uint32
	if column {
		un := frontier.NewBits(e.st.OwnedCount())
		for li, lv := range s.L {
			if lv == graph.Unreached {
				frontier.SetBit(un, uint32(li))
			}
		}
		o.Tag = tagBase + 1<<22
		var ust collective.Stats
		uPieces, ust = collective.Gather(e.c, e.colG, o, "allgather", wireBits(e.pl, e.opts, &e.hist, un, e.st.OwnedCount()), chargeRecv(e.colG.Me))
		unwireBitPieces(e.pl, e.opts, uPieces, func(i int) int { return l.OwnedCount(e.colG.Ranks[i]) })
		rec.ExpandWords += ust.RecvWords
		claims = make([][]uint32, l.R)
		for i := 0; i < l.R; i++ {
			claims[i] = frontier.NewBits(l.OwnedCount(e.colG.Ranks[i]))
		}
	}

	n := len(e.st.Off) - 1 // columns
	edges := 0
	if e.pl.Inline(n, ownedGrain) {
		edges = e.claimParents(s, fPieces, uPieces, claims, 0, n)
	} else {
		for _, c := range pool.Collect(e.pl, n, ownedGrain, func(c *int, lo, hi int) { *c = e.claimParents(s, fPieces, uPieces, claims, lo, hi) }) {
			edges += c
		}
	}
	rec.Edges = edges
	if column {
		e.c.ChargeItemsPar(n, e.model.VertexCost)
	}
	e.c.ChargeItemsPar(edges, e.model.EdgeCost)

	next := s.nextFrontier()
	foundTarget := false
	label := func(li uint32) {
		gv := e.st.GlobalOf(li)
		next.Add(uint32(gv))
		rec.marked++
		if e.opts.HasTarget && gv == e.opts.Target {
			foundTarget = true
		}
	}
	if column {
		mine := e.reduceClaims(claims, tagBase+2<<22, chargeRecv(e.colG.Me), &rec)
		frontier.IterateBits(mine, func(li uint32) {
			if s.L[li] != graph.Unreached {
				return // claims are built from a pre-level snapshot
			}
			s.L[li] = s.level + 1
			label(li)
		})
	} else {
		// The scan labeled s.L in place, its chunks at disjoint indices;
		// one ascending pass builds the frontier in the same order at
		// every pool size.
		for li, lv := range s.L {
			if lv == s.level+1 {
				label(uint32(li))
			}
		}
	}
	s.advance()
	rec.end(tm)
	return rec, foundTarget
}

// reduceClaims OR-reduce-scatters the claim bitmaps over the processor
// column and returns this rank's: its owned vertices some column-mate
// found a frontier parent for.
func (e *engine2D) reduceClaims(claims [][]uint32, tag int, handle collective.Handle, rec *rankLevel) []uint32 {
	l := e.st.Layout
	o := collective.Opts{Tag: tag, Chunk: e.opts.ChunkWords, Async: e.opts.Async}
	if e.opts.Wire == frontier.WireHybrid {
		o.Codec = &collective.Codec{
			Enc: func(m int, w []uint32) []uint32 {
				return frontier.EncodeBitsPar(e.pl, w, l.OwnedCount(e.colG.Ranks[m]), e.opts.Wire, &e.hist)
			},
			Dec: func(m int, buf []uint32) []uint32 {
				return frontier.DecodeBitsPar(e.pl, buf, l.OwnedCount(e.colG.Ranks[m]))
			},
		}
	}
	mine, st := collective.ReduceScatterOr(e.c, e.colG, o, func(m int) []uint32 { return claims[m] }, handle)
	rec.FoldWords = st.RecvWords
	return mine
}

// claimParents is the bottom-up scan's body over the compact columns
// [lo, hi): each column vertex its owner still holds unlabeled stops at
// the first frontier parent in its partial list here and claims itself
// for that owner — or, with claims nil (R = 1, where column ci is owned
// vertex ci), labels itself in s.L. Distinct column vertices can claim
// distinct bits of one claims word from different chunks, so the set is
// atomic; which bits get set is schedule-independent (each vertex's scan
// touches only its own partial list). It returns the edge entries
// inspected.
func (e *engine2D) claimParents(s *sideState, fPieces, uPieces, claims [][]uint32, lo, hi int) (edges int) {
	st := e.st
	l := st.Layout
	bs := l.BlockSize()
	// Column vertices v are owned within my processor column, at
	// column-group index BlockOf(v) mod R, and ascend with ci, so the
	// cursor divides once per owner the chunk reaches.
	owner := l.OwnerCursor()
	for ci := lo; ci < hi; ci++ {
		var m int
		var off uint32
		if claims == nil {
			if s.L[ci] != graph.Unreached {
				continue
			}
		} else if m, off = owner.Locate(st.ColIds[ci]); !frontier.TestBit(uPieces[m], off) {
			continue
		}
		for _, u := range st.Rows[st.Off[ci]:st.Off[ci+1]] {
			edges++
			// My row vertices u satisfy BlockOf(u) mod R == my mesh row,
			// so their owner sits at row-group index BlockOf(u)/R.
			ub := int(u) / bs
			if frontier.TestBit(fPieces[ub/l.R], uint32(int(u)-ub*bs)) {
				if claims == nil {
					s.L[ci] = s.level + 1
				} else {
					frontier.SetBitAtomic(claims[m], off)
				}
				break
			}
		}
	}
	return edges
}
