package search

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/partition"
)

// Payload binds the value type V riding with each vertex of a fold — a
// 64-bit lane mask, a uint32 tentative distance — to its merge (OR or
// min), whose identity the fold's rows start from, and to its wire
// form.
type Payload[V any] interface {
	// Identity is the value a row holds before any pair merges into it:
	// 0 for OR, MaxUint32 for min.
	Identity() V
	// Merge merges a non-empty part that arrived for this rank: its set,
	// read by in.Unframe, and each member's value, in bit order, into acc
	// at row in.Row plus its bit, by the scans' merge (OR or min).
	Merge(acc []V, in *Inbox, part []uint32)
	// Encode packs a merged batch, the set s drawn from the
	// destination's owned universe [lo, lo+n) and its values xs in set
	// order; an empty batch is a nil payload.
	Encode(s Set, xs []V, lo uint32, n int) []uint32
	// Decode inverts Encode into the staging vs and xs, whose capacity
	// it may reuse: the column expand's scans read lists.
	Decode(buf, vs []uint32, xs []V) ([]uint32, []V)
}

// Set is a set of Count members drawn from a universe [lo, lo+n): its
// ascending IDs or, with Bits non-nil, the wire bitmap over [0, n) whose
// bit i is member lo+i — a fold member's rows (frontier.Words32).
type Set struct {
	IDs, Bits []uint32
	Count     int
}

// Inbox reads what arrives for a rank's owned range [lo, lo+n), whose id
// lo+i is at row Row+i of its own member: marks, those rows' bits viewed
// as a wire bitmap; pairs, the member's pair count; scratch, where a set
// that did not arrive as a bitmap is decoded.
type Inbox struct {
	Row     uint32
	lo, n   uint32
	marks   []uint32
	pairs   *uint64
	scratch []uint32
}

// Unframe reads a non-empty part framed with nhdr header words
// (FrameSet): its set as a wire bitmap over the owned range, valid until
// the next call, its member count, and its header and value words; and
// marks the set's rows and counts its pairs, a word at a time. A set
// over another range, a raw id outside it or a truncated part panics.
func (in *Inbox) Unframe(part []uint32, nhdr int) (set []uint32, count int, hdr, values []uint32) {
	end := frameEnd(part, nhdr)
	set, err := frontier.DecodeSetBits(part[1+nhdr:end], &in.scratch, in.lo, int(in.n))
	if err != nil {
		panic("search: fold " + err.Error())
	}
	for wi, x := range set {
		in.marks[wi] |= x
		count += bits.OnesCount32(x)
	}
	*in.pairs += uint64(count)
	return set, count, part[1 : 1+nhdr], part[end:]
}

// Rows is where a fold merges at the row: a bit per local row of a
// rank's store (Store2D.RowIdx) that a step's scan reached or, in the
// rank's own member, a pair arrived at, and the owner table the pairs
// are counted by. Rows are numbered by position, member m of the fold
// group owning the word-aligned bits [m·span, m·span+BlockSize), so
// Owner maps a word of Bits to its member without a division, and a
// member's rows, read off its words in order, are its sorted set.
type Rows struct {
	Bits  []uint64
	Owner []uint64 // Owner[w]: the member whose rows word w of Bits holds
	words int      // words of Bits a member's rows take
}

// NewRows returns the rows of store st over a fold group of members
// (its processor row, one member per owner column) and the pair count
// per member a Tally keeps for them, in one allocation.
func NewRows(st *partition.Store2D, members int) (Rows, []uint64) {
	w := st.RowCount / 64
	all := make([]uint64, 2*w+members)
	r := Rows{Bits: all[:w:w], Owner: all[w : 2*w : 2*w], words: w / members}
	for i := range r.Owner {
		r.Owner[i] = uint64(i / r.words)
	}
	return r, all[2*w:]
}

// Mark marks row ri and counts a pair for its member in pairs — with an
// atomic OR when shared, the chunks of a scan running at once.
func (r *Rows) Mark(pairs []uint64, ri uint32, shared bool) {
	if shared {
		MarkAtomic(r.Bits, ri)
	} else {
		r.Bits[ri>>6] |= 1 << (ri & 63)
	}
	pairs[r.Owner[ri>>6]]++
}

// Or merges the pair (row ri, lane mask x) at its row: x is ORed into
// the row's accumulator and the row marked (Mark).
func (r *Rows) Or(acc, pairs []uint64, ri uint32, x uint64) {
	acc[ri] |= x
	r.Bits[ri>>6] |= 1 << (ri & 63)
	pairs[r.Owner[ri>>6]]++
}

// OrShared is Or for chunks running at once: an atomic OR.
func (r *Rows) OrShared(acc, pairs []uint64, ri uint32, x uint64) {
	atomic.OrUint64(&acc[ri], x)
	r.Mark(pairs, ri, true)
}

// Min merges the pair (row ri, distance x) at its row: the row's
// accumulator keeps the least and the row is marked (Mark).
func (r *Rows) Min(acc []uint32, pairs []uint64, ri, x uint32) {
	acc[ri] = min(acc[ri], x)
	r.Bits[ri>>6] |= 1 << (ri & 63)
	pairs[r.Owner[ri>>6]]++
}

// MinShared is Min for chunks running at once: a CAS loop lowers the
// accumulator unless it already holds no more.
func (r *Rows) MinShared(acc []uint32, pairs []uint64, ri, x uint32) {
	for p := &acc[ri]; ; {
		old := atomic.LoadUint32(p)
		if x >= old || atomic.CompareAndSwapUint32(p, old, x) {
			break
		}
	}
	r.Mark(pairs, ri, true)
}

// member returns the words of Bits that hold member m's rows.
func (r *Rows) member(m int) []uint64 { return r.Bits[m*r.words : (m+1)*r.words] }

// MarkAtomic sets bit ri of bits with an atomic OR unless it is already
// set — the mark of a scan whose chunks run at once.
func MarkAtomic(bits []uint64, ri uint32) {
	w, b := &bits[ri>>6], uint64(1)<<(ri&63)
	if atomic.LoadUint64(w)&b == 0 {
		atomic.OrUint64(w, b)
	}
}

// Fold is the fold half of a superstep whose vertices carry a value,
// the same for both partitionings and both schedules: the step's scans
// merge each (row, value) pair where they read it — an OR or a min into
// the row's accumulator, the row's bit set and the pair counted for its
// member ("merged to form N", with a value) — then Deliver reads each
// other member's set off its rows and delivers it to its owner over the
// fold group, and merges what arrives for this rank the same way at the
// rows of its own member, which are its owned range. The model charges
// each merge one VertexCost per pair that went in, whatever way the
// merge is computed.
//
// The rows and the accumulator are allocated once per rank per run and
// reused every step: a member's rows go back to the payload's identity
// as Deliver reads them. Only encoded payloads, owned by the transport
// once posted, are allocated fresh.
type Fold[V any] struct {
	c   *comm.Comm
	g   comm.Group
	o   *Common
	l   partition.View
	ops Payload[V]
	id  V

	// Acc holds each row's merged value, the identity where no pair
	// merged since the row was last read; Rows its marks.
	Acc   []V
	Rows  Rows
	tally Tally
	// in reads the parts that arrive for this rank's owned range.
	in Inbox

	outV, decV []uint32
	outX, decX []V
	// absorbed counts the duplicates of the Deliver in flight (a field,
	// not a local, so prep captures nothing but f).
	absorbed int
}

// NewFold builds the fold of group g — st's processor row — on rank c
// over store st.
func NewFold[V any](c *comm.Comm, g comm.Group, o *Common, st *partition.Store2D, ops Payload[V]) *Fold[V] {
	l := st.View()
	f := &Fold[V]{c: c, g: g, o: o, l: l, ops: ops, id: ops.Identity(), Acc: make([]V, st.RowCount)}
	for i := range f.Acc {
		f.Acc[i] = f.id
	}
	f.Rows, f.tally.Pairs = NewRows(st, g.Size())
	lo, hi := l.OwnedRange(g.World(g.Me))
	f.in = Inbox{Row: uint32(g.Me * 64 * f.Rows.words), lo: uint32(lo), n: uint32(hi - lo),
		marks: frontier.Words32(f.Rows.member(g.Me)), pairs: &f.tally.Pairs[g.Me]}
	return f
}

// Tally zeroes the scan counts for the next step and returns them: the
// step's scans count into it as they merge into Acc and Rows.
func (f *Fold[V]) Tally() *Tally {
	f.tally.Reset()
	return &f.tally
}

// Encode packs pairs in the fold's payload form. With Decode it makes the
// fold a Column's Wire, whose arrivals may borrow the decode staging:
// the column's scan is over before the fold begins.
func (f *Fold[V]) Encode(vs []uint32, xs []V, lo uint32, n int) []uint32 {
	return f.ops.Encode(Set{IDs: vs, Count: len(vs)}, xs, lo, n)
}

// Decode decodes a payload into the decode staging, valid until the
// next call.
func (f *Fold[V]) Decode(buf []uint32) ([]uint32, []V) {
	f.decV, f.decX = f.ops.Decode(buf, f.decV, f.decX)
	return f.decV, f.decX
}

// take counts member m's rows and reads their merged values, in row
// order, into the merge staging — with ids, their ids, owned range from
// lo, too — resetting the rows' accumulators; the caller clears their
// bits once it has read the set off them. It charges and returns the
// pairs that went into the rows.
func (f *Fold[V]) take(m int, lo uint32, ids bool) int {
	words, count := f.Rows.member(m), 0
	for _, w := range words {
		count += bits.OnesCount64(w)
	}
	vs, xs := f.outV[:0], resize(f.outX, count)
	if ids {
		vs = resize(vs, count)
	}
	acc, k := f.Acc[m*64*f.Rows.words:], 0
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			r := i*64 + bits.TrailingZeros64(w)
			xs[k], acc[r] = acc[r], f.id
			if ids {
				vs[k] = lo + uint32(r)
			}
			k++
		}
	}
	f.outV, f.outX = vs, xs
	pairs := int(f.tally.Pairs[m])
	f.tally.Pairs[m] = 0
	f.c.ChargeItems(pairs, f.c.Model().VertexCost)
	return pairs
}

// resize returns staging s cut to n elements, reallocated at twice that
// when short; what it held is not kept.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, 2*n)
	}
	return s[:n]
}

// Deliver runs the fold of one step under the schedule o.Async selects
// and returns the merged pairs owned by this rank, valid until the next
// call, with the duplicates the merges absorbed; the words received go
// to st.FoldWords. The exchange calls prep once per member, the self
// set included; the overlapped schedule posts each set as soon as it is
// read, encoded from its rows, never an id list. This rank's own set
// never travels: its rows stay in place, each arrival merges into them,
// and they are read once the exchange is over.
func (f *Fold[V]) Deliver(tag int, st *Step) (vs []uint32, xs []V, absorbed int) {
	f.absorbed = 0
	prep := func(m int) []uint32 {
		words := f.Rows.member(m)
		if m != f.g.Me {
			lo, hi := f.l.OwnedRange(f.g.World(m))
			f.absorbed += f.take(m, 0, false) - len(f.outX)
			out := f.ops.Encode(Set{Bits: frontier.Words32(words), Count: len(f.outX)}, f.outX, uint32(lo), int(hi-lo))
			clear(words)
			return out
		}
		// Both schedules prep this rank's own member before they handle
		// any part (collective.Exchange): its marks are the distinct rows
		// the scans reached, and from here pairs[m] counts them and then
		// every pair that arrives — what goes into the owner's merge.
		pairs, d := f.tally.Pairs, 0
		for _, w := range words {
			d += bits.OnesCount64(w)
		}
		f.c.ChargeItems(int(pairs[m]), f.c.Model().VertexCost)
		f.absorbed += int(pairs[m]) - d
		pairs[m] = uint64(d)
		return nil
	}
	handle := func(m int, part []uint32) {
		if m != f.g.Me && len(part) > 0 {
			f.ops.Merge(f.Acc, &f.in, part)
		}
	}
	o := collective.Opts{Tag: tag, Chunk: f.o.ChunkWords, Async: f.o.Async}
	st.FoldWords = collective.Exchange(f.c, f.g, o, prep, handle).RecvWords
	f.absorbed += f.take(f.g.Me, f.in.lo, true) - len(f.outX)
	clear(f.Rows.member(f.g.Me))
	return f.outV, f.outX, f.absorbed
}

// Value payloads share one head, [setWords, hdr..., encodedSet...]: the
// vertex set is ascending and duplicate-free (senders merge the values
// of duplicate vertices first), so it compresses under every frontier
// wire mode, and the setWords prefix keeps the payload self-describing
// under each. The family's header words, if any, and its values — in
// decoded set order — follow.

// FrameSet starts a value payload for the set s drawn from the universe
// [lo, lo+n), with room for tail value words after the head.
// The set is encoded in place after the head, into the one allocation.
func FrameSet(s Set, lo uint32, n int, mode frontier.WireMode, h *frontier.ContainerHist, tail int, hdr ...uint32) []uint32 {
	head := 1 + len(hdr)
	out := make([]uint32, head, head+frontier.EncodeSetBound(mode, n, s.Count)+tail)
	copy(out[1:], hdr)
	if s.Bits != nil {
		out = frontier.AppendEncodeBits(out, s.Bits, s.Count, lo, n, mode, h)
	} else {
		out = frontier.AppendEncodeSet(out, s.IDs, lo, n, mode, h)
	}
	out[0] = uint32(len(out) - head)
	return out
}

// frameEnd returns where the set of a non-empty payload framed with nhdr
// header words ends and its values begin. A truncated payload panics.
func frameEnd(buf []uint32, nhdr int) int {
	if len(buf) < 1+nhdr || 1+nhdr+int(buf[0]) > len(buf) {
		panic("search: truncated value payload")
	}
	return 1 + nhdr + int(buf[0])
}

// UnframeSet reads the head of a non-empty payload framed with nhdr
// header words: the set, decoded into the staging vs, the header words
// and the value words that follow. A truncated payload panics.
func UnframeSet(buf, vs []uint32, nhdr int) (set, hdr, values []uint32) {
	end := frameEnd(buf, nhdr)
	return frontier.AppendDecode(vs[:0], buf[1+nhdr:end]), buf[1 : 1+nhdr], buf[end:]
}
