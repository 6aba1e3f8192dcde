package bfs

import (
	"math/bits"

	"repro/internal/collective"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/partition"
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

// unwireBitPieces restores gathered bitmap pieces in place; piece i
// covers universe size widths(i).
func unwireBitPieces(opts Options, pieces [][]uint32, widths func(i int) int) {
	if opts.Wire != frontier.WireHybrid {
		return
	}
	for i := range pieces {
		pieces[i] = frontier.DecodeBits(pieces[i], widths(i))
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
	fBits := s.F.Bits()
	fSend := frontier.EncodeBits(fBits, e.st.OwnedCount(), e.opts.Wire, &e.hist)
	fPieces, fst := collective.Gather(e.c, e.rowG, o, "allgather", fSend, chargeRecv(e.rowG.Me))
	unwireBitPieces(e.opts, fPieces, func(i int) int { return l.OwnedCount(e.rowG.Ranks[i]) })
	rec.ExpandWords = fst.RecvWords
	row := e.rowBits(fPieces)

	var uPieces, claims [][]uint32
	if column {
		un := s.unlabeledBits(fBits)
		o.Tag = tagBase + 1<<22
		var ust collective.Stats
		uPieces, ust = collective.Gather(e.c, e.colG, o, "allgather", frontier.EncodeBits(un, e.st.OwnedCount(), e.opts.Wire, &e.hist), chargeRecv(e.colG.Me))
		unwireBitPieces(e.opts, uPieces, func(i int) int { return l.OwnedCount(e.colG.Ranks[i]) })
		rec.ExpandWords += ust.RecvWords
		claims = make([][]uint32, l.R)
		for i := 0; i < l.R; i++ {
			claims[i] = frontier.NewBits(l.OwnedCount(e.colG.Ranks[i]))
		}
	}

	n := len(e.st.Off) - 1 // columns
	edges := 0
	if e.pl.Inline(n, ownedGrain) {
		edges = e.claimParents(s, row, uPieces, claims, 0, n, false)
	} else {
		for _, c := range pool.Collect(e.pl, n, ownedGrain, func(c *int, lo, hi int) { *c = e.claimParents(s, row, uPieces, claims, lo, hi, true) }) {
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

// rowBits lays the level's gathered frontier pieces out by local row:
// row-group member j's piece at bit j·span, where RowIdx numbers its
// rows, so an entry's parent test is one bit read at its row. The
// pieces keep their lengths from level to level, so the bits past a
// piece stay zero.
func (e *engine2D) rowBits(fPieces [][]uint32) []uint32 {
	if e.row == nil {
		e.row = frontier.NewBits(e.st.RowCount)
	}
	words := len(e.row) / len(fPieces) // span / 32 a member
	for j, piece := range fPieces {
		copy(e.row[j*words:(j+1)*words], piece)
	}
	return e.row
}

// unlabeledBits returns the side's unlabeled owned vertices as a wire
// bitmap, kept for the run: a bottom-up level right after another
// clears the frontier fBits that level labeled, any other rebuilds it
// from L. Column-mates only read it, and no rank passes the reduction
// that starts the next level before every scan of this one has ended.
func (s *sideState) unlabeledBits(fBits []uint32) []uint32 {
	if s.un != nil && s.unAt == s.level {
		for i, f := range fBits {
			s.un[i] &^= f
		}
	} else {
		s.un = append(s.un[:0], make([]uint32, frontier.BitWords(len(s.L)))...)
		for li, lv := range s.L {
			if lv == graph.Unreached {
				frontier.SetBit(s.un, uint32(li))
			}
		}
	}
	s.unAt = s.level + 1
	return s.un
}

// reduceClaims OR-reduce-scatters the claim bitmaps over the processor
// column and returns this rank's: its owned vertices some column-mate
// found a frontier parent for.
func (e *engine2D) reduceClaims(claims [][]uint32, tag int, handle collective.Handle, rec *rankLevel) []uint32 {
	l := e.st.Layout
	o := collective.Opts{Tag: tag, Chunk: e.opts.ChunkWords, Async: e.opts.Async}
	if e.opts.Wire == frontier.WireHybrid {
		o.Codec = &collective.Codec{
			Enc: func(dst []uint32, m int, w []uint32) []uint32 {
				enc := frontier.EncodeBits(w, l.OwnedCount(e.colG.Ranks[m]), e.opts.Wire, &e.hist)
				if dst == nil {
					return enc
				}
				return append(dst, enc...)
			},
			Dec: func(m int, buf []uint32) []uint32 {
				return frontier.DecodeBits(buf, l.OwnedCount(e.colG.Ranks[m]))
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
// vertex ci), labels itself in s.L. With R > 1 it walks the set bits of
// the unlabeled pieces — the owners' blocks tile the block column in
// column-group order — across the chunk's vertex span [ColIds[lo],
// ColIds[hi-1]], each mapped to its column through ColIdx. Distinct
// column vertices can claim distinct bits of one claims word from chunks
// running at once, so when shared the set is atomic; which bits get set
// is schedule-independent (each vertex's scan touches only its own
// partial list). It returns the edge entries inspected.
func (e *engine2D) claimParents(s *sideState, row []uint32, uPieces, claims [][]uint32, lo, hi int, shared bool) (edges int) {
	st := e.st
	rows, colOff := st.RowIdx, st.Off
	// scan walks column ci's list to its first frontier parent.
	scan := func(ci uint32) bool {
		for _, ri := range rows[colOff[ci]:colOff[ci+1]] {
			edges++
			if frontier.TestBit(row, ri) {
				return true
			}
		}
		return false
	}
	if claims == nil {
		for ci := lo; ci < hi; ci++ {
			if s.L[ci] == graph.Unreached && scan(uint32(ci)) {
				s.L[ci] = s.level + 1
			}
		}
		return edges
	}
	if lo >= hi {
		return 0
	}
	bs := uint32(st.Layout.BlockSize())
	first, last := uint32(st.ColIds[lo]-st.ColBase), uint32(st.ColIds[hi-1]-st.ColBase)
	for m := first / bs; m <= last/bs; m++ {
		base := m * bs
		// The span's part in piece m, [from, to] piece-relative.
		from, to := max(first, base)-base, min(last, base+bs-1)-base
		piece, idx := uPieces[m], st.ColIdx[base:]
		for wi := from >> 5; wi <= to>>5; wi++ {
			x := piece[wi]
			if wi == from>>5 {
				x &= ^uint32(0) << (from & 31)
			}
			if wi == to>>5 {
				x &= ^uint32(0) >> (31 - to&31)
			}
			for ; x != 0; x &= x - 1 {
				off := wi<<5 | uint32(bits.TrailingZeros32(x))
				ci := idx[off]
				if ci == partition.NoColumn || !scan(ci) {
					continue
				}
				if shared {
					frontier.SetBitAtomic(claims[m], off)
				} else {
					frontier.SetBit(claims[m], off)
				}
			}
		}
	}
	return edges
}
