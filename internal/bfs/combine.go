package bfs

import (
	"math/bits"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/partition"
	"repro/internal/search"
)

// The combine step — Algorithm 2's neighbors "merged to form N" before
// the fold, and merged again at the owner — of a single-source search
// (value-carrying vertices share search.Fold). Every set is destined to
// one member of the fold group, so its ids lie in that member's
// contiguous owned range. The scan marks row bits, which are numbered by
// position within each member's range (Store2D.RowIdx) — the side's seen
// marks with the sent-neighbors cache, else the fold's rows, counting a
// pair for the row's member as it marks — so a set is read off the marks
// in order, sized by their popcount and written straight where the fold
// reads it, most often the buffer it hands the transport. The scratch is
// allocated once per rank per run. The model charges each merge one
// VertexCost per id that went in, len(out)+absorbed, however it is
// computed: the ids the level's scan reached that were never sent with
// the cache, the pairs counted without it.

// setBins is one rank's union-form combine scratch and the fold that
// consumes it: the folding side's marks, the level's scan tally and,
// without the cache, the rows the scan fills. It is the fold's
// collective.Sets.
type setBins struct {
	c *comm.Comm
	g comm.Group // the fold group; set m is destined to member m
	// l is the layout; a member's owned range is at most l.BlockSize wide.
	l     partition.View
	opts  *Options
	hist  *frontier.ContainerHist
	rows  search.Rows
	tally search.Tally
	// sent and seen are the folding side's (sideState) — without the
	// cache sent is nil and seen is rows' — each member's rows an equal
	// run of their words.
	sent, seen []uint64
	// nbar is the last level's N̄, whose memory the next fold's union
	// writes (Into).
	nbar []uint32
}

// Into hands the fold the last level's N̄ to write this level's into
// (collective.Into).
func (b *setBins) Into() []uint32 { return b.nbar }

func newSetBins(c *comm.Comm, g comm.Group, st *partition.Store2D, opts *Options, h *frontier.ContainerHist) *setBins {
	b := &setBins{c: c, g: g, l: st.View(), opts: opts, hist: h}
	if !opts.SentCache {
		b.rows, b.tally.Pairs = search.NewRows(st, g.Size())
	}
	return b
}

// member returns member m's words of the sent and seen marks, sent nil
// without the cache.
func (b *setBins) member(m int) (sent, seen []uint64) {
	span := len(b.seen) / b.g.Size()
	if b.sent != nil {
		sent = b.sent[m*span : (m+1)*span]
	}
	return sent, b.seen[m*span : (m+1)*span]
}

// Len makes, and charges, the sorted set destined to member m and
// returns its size: member m's rows the level's scan reached that were
// never sent, seen &^ sent, counted here and read off by Append. The
// folds call Len once per member where the set is needed — under the
// overlapped direct fold the moment it is posted, so the early sets'
// transfers fly while the later ones are made.
func (b *setBins) Len(m int) int {
	sent, seen := b.member(m)
	n := 0
	for i, x := range seen {
		if sent != nil {
			x &^= sent[i]
		}
		n += bits.OnesCount64(x)
	}
	charged := n
	if sent == nil {
		charged = int(b.tally.Pairs[m])
		b.tally.Pairs[m] = 0
	}
	b.c.ChargeItems(charged, b.c.Model().VertexCost)
	return n
}

// Append appends member m's set to dst in vertex order. Its ids join
// sent, and seen is cleared for the next level.
func (b *setBins) Append(dst []uint32, m int) []uint32 {
	lo, _ := b.l.OwnedRange(b.g.World(m))
	sent, seen := b.member(m)
	for i, x := range seen {
		if x == 0 {
			continue
		}
		fresh := x
		if sent != nil {
			fresh &^= sent[i]
			sent[i] |= x
		}
		seen[i] = 0
		for base := uint32(lo) + uint32(i)*64; fresh != 0; fresh &= fresh - 1 {
			dst = append(dst, base+uint32(bits.TrailingZeros64(fresh)))
		}
	}
	return dst
}

// fold is the tail every top-down level of side s shares once its scan
// has marked the rows (Algorithm 1 steps 8–13, Algorithm 2 steps
// 13–18): make the sets, deliver them to their owners with the
// configured collective under the configured schedule, and return the
// sorted set N̄ of owned vertices to mark, its handling charged, valid
// until the next level's fold.
func (b *setBins) fold(s *sideState, tag int, rec *rankLevel) []uint32 {
	b.sent, b.seen = s.sent, s.seen
	if s.seen == nil {
		b.seen = b.rows.Bits
	}
	o := collective.Opts{Tag: tag, Chunk: b.opts.ChunkWords, Async: b.opts.Async}
	o.Codec = foldCodec(b.c.Tracer(), b.opts.Wire, b.g, b.l, b.hist)
	nbar, st := collective.Fold(b.c, b.g, o, b.opts.Fold.String(), b)
	rec.FoldWords, rec.dups = st.RecvWords, st.Dups
	b.c.ChargeItems(len(nbar), b.c.Model().VertexCost)
	b.nbar = nbar
	return nbar
}
