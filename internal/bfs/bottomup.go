package bfs

import (
	"repro/internal/collective"
	"repro/internal/comm"
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

// stepBottomUp runs one bottom-up level under the 1D partitioning:
// every rank learns the global frontier as a bitmap (one all-gather of
// owned-range bitmaps — 1D stores full edge lists, so no fold is
// needed), then scans its unlabeled owned vertices for frontier
// parents.
func (e *engine1D) stepBottomUp(s *sideState, tagBase int) (rankLevel, bool) {
	tm := beginLevel(e.c, &e.hist)
	// dir is stamped here, not by the caller: the level span closes
	// inside rec.end with rec.dir as its arg.
	rec := rankLevel{dir: BottomUp, frontier: s.F.Len()}
	o := collective.Opts{Tag: tagBase, Chunk: e.opts.ChunkWords, Async: e.opts.Async}
	payload := wireBits(e.pl, e.opts, &e.hist, frontier.Bits(s.F), e.st.OwnedCount())
	var pieces [][]uint32
	var st collective.Stats
	if e.opts.Async {
		// Pipelined ring: each received piece is forwarded before its
		// handling charge, which then hides the next hop's transit.
		pieces, st = collective.AllGatherAsync(e.c, e.world, o, payload, func(m int, piece []uint32) {
			if m != e.world.Me {
				e.c.ChargeItems(len(piece), e.model.VertexCost)
			}
		})
	} else {
		pieces, st = collective.AllGather(e.c, e.world, o, payload)
		e.c.ChargeItems(st.RecvWords, e.model.VertexCost)
	}
	unwireBitPieces(e.pl, e.opts, pieces, e.st.Layout.OwnedCount)
	rec.ExpandWords = st.RecvWords

	n := len(s.L)
	edges := 0
	if e.pl.Inline(n, ownedGrain) {
		edges = e.findParents(s, pieces, 0, n)
	} else {
		for _, c := range pool.Collect(e.pl, n, ownedGrain, func(c *int, lo, hi int) { *c = e.findParents(s, pieces, lo, hi) }) {
			edges += c
		}
	}
	// The chunks labeled s.L at disjoint indices; one ascending pass
	// over the labels builds the frontier in the same order at every
	// pool size.
	next := s.nextFrontier()
	foundTarget := false
	for li, lv := range s.L {
		if lv != s.level+1 {
			continue
		}
		gv := e.st.GlobalOf(uint32(li))
		next.Add(uint32(gv))
		rec.marked++
		if e.opts.HasTarget && gv == e.opts.Target {
			foundTarget = true
		}
	}
	rec.Edges = edges
	e.c.ChargeItemsPar(edges, e.model.EdgeCost)
	s.advance()
	rec.end(tm)
	return rec, foundTarget
}

// findParents is the 1D bottom-up scan's body over the owned vertices
// [lo, hi): each still-unlabeled one searches its edge list for a parent
// in the gathered frontier bitmaps and is labeled at the first hit. It
// returns the edge entries inspected.
func (e *engine1D) findParents(s *sideState, pieces [][]uint32, lo, hi int) (edges int) {
	bs := uint32(e.st.Layout.BlockSize())
	for li := lo; li < hi; li++ {
		if s.L[li] != graph.Unreached {
			continue
		}
		for _, u := range e.st.Neighbors(uint32(li)) {
			edges++
			r := uint32(u) / bs
			if frontier.TestBit(pieces[r], uint32(u)-r*bs) {
				s.L[li] = s.level + 1
				break
			}
		}
	}
	return edges
}

// stepBottomUp runs one bottom-up level under the 2D partitioning:
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
// Under WireHybrid all three bitmap exchanges carry container-encoded
// payloads (the gathers at the caller edges, the claims through
// collective.Opts.Codec).
func (e *engine2D) stepBottomUp(s *sideState, tagBase int) (rankLevel, bool) {
	tm := beginLevel(e.c, &e.hist)
	l := e.st.Layout
	// dir is stamped here, not by the caller: the level span closes
	// inside rec.end with rec.dir as its arg.
	rec := rankLevel{dir: BottomUp, frontier: s.F.Len()}

	// Per-piece handling charge for the pipelined gathers (received
	// pieces only, the synchronous charge split across arrivals).
	chargeRecv := func(me int) collective.Handle {
		return func(m int, piece []uint32) {
			if m != me {
				e.c.ChargeItems(len(piece), e.model.VertexCost)
			}
		}
	}
	gather := func(g comm.Group, o collective.Opts, data []uint32) ([][]uint32, collective.Stats) {
		if e.opts.Async {
			return collective.AllGatherAsync(e.c, g, o, data, chargeRecv(g.Me))
		}
		pieces, st := collective.AllGather(e.c, g, o, data)
		e.c.ChargeItems(st.RecvWords, e.model.VertexCost)
		return pieces, st
	}

	o := collective.Opts{Tag: tagBase, Chunk: e.opts.ChunkWords, Async: e.opts.Async}
	fSend := wireBits(e.pl, e.opts, &e.hist, frontier.Bits(s.F), e.st.OwnedCount())
	fPieces, fst := gather(e.rowG, o, fSend)
	unwireBitPieces(e.pl, e.opts, fPieces, func(i int) int { return l.OwnedCount(e.rowG.Ranks[i]) })

	un := frontier.NewBits(e.st.OwnedCount())
	for li, lv := range s.L {
		if lv == graph.Unreached {
			frontier.SetBit(un, uint32(li))
		}
	}
	o2 := collective.Opts{Tag: tagBase + 1<<22, Chunk: e.opts.ChunkWords, Async: e.opts.Async}
	uPieces, ust := gather(e.colG, o2, wireBits(e.pl, e.opts, &e.hist, un, e.st.OwnedCount()))
	unwireBitPieces(e.pl, e.opts, uPieces, func(i int) int { return l.OwnedCount(e.colG.Ranks[i]) })
	rec.ExpandWords = fst.RecvWords + ust.RecvWords

	claims := make([][]uint32, l.R)
	for i := 0; i < l.R; i++ {
		claims[i] = frontier.NewBits(l.OwnedCount(e.colG.Ranks[i]))
	}
	n := len(e.st.ColIds)
	edges := 0
	if e.pl.Inline(n, ownedGrain) {
		edges = e.claimParents(fPieces, uPieces, claims, 0, n)
	} else {
		for _, c := range pool.Collect(e.pl, n, ownedGrain, func(c *int, lo, hi int) { *c = e.claimParents(fPieces, uPieces, claims, lo, hi) }) {
			edges += c
		}
	}
	rec.Edges = edges
	e.c.ChargeItemsPar(len(e.st.ColIds), e.model.VertexCost)
	e.c.ChargeItemsPar(edges, e.model.EdgeCost)

	o3 := collective.Opts{Tag: tagBase + 2<<22, Chunk: e.opts.ChunkWords, Async: e.opts.Async}
	if e.opts.Wire == frontier.WireHybrid {
		o3.Codec = &collective.Codec{
			Enc: func(m int, w []uint32) []uint32 {
				return frontier.EncodeBitsPar(e.pl, w, l.OwnedCount(e.colG.Ranks[m]), e.opts.Wire, &e.hist)
			},
			Dec: func(m int, buf []uint32) []uint32 {
				return frontier.DecodeBitsPar(e.pl, buf, l.OwnedCount(e.colG.Ranks[m]))
			},
		}
	}
	var mine []uint32
	var cst collective.Stats
	if e.opts.Async {
		mine, cst = collective.ReduceScatterOrAsync(e.c, e.colG, o3,
			func(m int) []uint32 { return claims[m] }, chargeRecv(e.colG.Me))
	} else {
		mine, cst = collective.ReduceScatterOr(e.c, e.colG, o3, claims)
		e.c.ChargeItems(cst.RecvWords, e.model.VertexCost)
	}
	rec.FoldWords = cst.RecvWords

	next := s.nextFrontier()
	foundTarget := false
	frontier.IterateBits(mine, func(li uint32) {
		if s.L[li] != graph.Unreached {
			return // claims are built from a pre-level snapshot
		}
		s.L[li] = s.level + 1
		gv := e.st.GlobalOf(li)
		next.Add(uint32(gv))
		rec.marked++
		if e.opts.HasTarget && gv == e.opts.Target {
			foundTarget = true
		}
	})
	s.advance()
	rec.end(tm)
	return rec, foundTarget
}

// claimParents is the 2D bottom-up scan's body over the compact columns
// [lo, hi): each column vertex its owner still holds unlabeled stops at
// the first frontier parent in its partial list here and claims itself
// for that owner. Distinct column vertices can claim distinct bits of
// one claims word from different chunks, so the set is atomic; which
// bits get set is schedule-independent (each vertex's scan touches only
// its own partial list). It returns the edge entries inspected.
func (e *engine2D) claimParents(fPieces, uPieces, claims [][]uint32, lo, hi int) (edges int) {
	st := e.st
	l := st.Layout
	bs := l.BlockSize()
	// Column vertices v are owned within my processor column, at
	// column-group index BlockOf(v) mod R, and ascend with ci, so the
	// cursor divides once per owner the chunk reaches.
	owner := l.OwnerCursor()
	for ci := lo; ci < hi; ci++ {
		m, off := owner.Locate(st.ColIds[ci])
		if !frontier.TestBit(uPieces[m], off) {
			continue
		}
		for _, u := range st.Rows[st.Off[ci]:st.Off[ci+1]] {
			edges++
			// My row vertices u satisfy BlockOf(u) mod R == my mesh row,
			// so their owner sits at row-group index BlockOf(u)/R.
			ub := int(u) / bs
			if frontier.TestBit(fPieces[ub/l.R], uint32(int(u)-ub*bs)) {
				frontier.SetBitAtomic(claims[m], off)
				break
			}
		}
	}
	return edges
}
