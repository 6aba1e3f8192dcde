package search

import (
	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/localindex"
	"repro/internal/partition"
)

// Payload binds the value type V riding with each vertex of a fold — a
// 64-bit lane mask, a uint32 tentative distance — to its combine (the
// Combiner's OR or min scatter and drain) and its wire form.
type Payload[V any] interface {
	// Add scatters the pairs (vs[i], xs[i]) into cb.
	Add(cb *localindex.Combiner, vs []uint32, xs []V)
	// Drain appends cb's merged pairs, ascending and duplicate-free, to
	// vs and xs and returns them with the duplicates absorbed.
	Drain(cb *localindex.Combiner, vs []uint32, xs []V) ([]uint32, []V, int)
	// Encode packs a merged batch drawn from the destination's owned
	// universe [lo, lo+n); an empty batch is a nil payload.
	Encode(vs []uint32, xs []V, lo uint32, n int) []uint32
	// Decode inverts Encode into the staging vs and xs, whose capacity
	// it may reuse.
	Decode(buf, vs []uint32, xs []V) ([]uint32, []V)
}

// Fold is the fold half of a superstep whose vertices carry a value,
// the same for both partitionings and both schedules: merge each raw
// (vertex, value) bin ("merged to form N", with an OR or a min instead
// of a union), deliver the bins to their owners over the fold group,
// and merge what arrives for this rank. Every bin is destined to one
// group member, so its vertices lie in that member's contiguous owned
// range and a localindex.Combiner merges them without a sort; the model
// charges each merge one VertexCost per pair that went in, whatever way
// the merge is computed.
//
// It holds the raw bins a step's scan fills, the send-side Combiner
// (retargeted per bin), the owner's Combiner that every arrived part
// streams into as it lands, and the merge and decode staging — all
// allocated once per rank per run and reused every step. Only encoded payloads, owned by the
// transport once posted, are allocated fresh.
type Fold[V any] struct {
	c   *comm.Comm
	g   comm.Group
	o   *Common
	l   partition.View
	ops Payload[V]

	comb, own  *localindex.Combiner
	raw        Bins[V]
	outV, decV []uint32
	outX, decX []V
	// absorbed counts the send-side duplicates of the Deliver in flight
	// (a field, not a local, so prep captures nothing but f).
	absorbed int
}

// NewFold builds the fold of group g on rank c over layout l. caps,
// when non-nil, is each raw bin's initial capacity — the most pairs one
// step can bin for that member (a store's FoldEntries) — so the bins
// never regrow; nil bins start empty and grow with what the steps bin.
func NewFold[V any](c *comm.Comm, g comm.Group, o *Common, l partition.View, ops Payload[V], caps []uint32) *Fold[V] {
	f := &Fold[V]{c: c, g: g, o: o, l: l, ops: ops,
		comb: localindex.NewCombiner(l.BlockSize), own: localindex.NewCombiner(l.BlockSize),
		raw: Bins[V]{V: make([][]uint32, g.Size()), X: make([][]V, g.Size())}}
	for m, n := range caps {
		f.raw.V[m], f.raw.X[m] = make([]uint32, 0, n), make([]V, 0, n)
	}
	lo, hi := l.OwnedRange(g.World(g.Me))
	f.own.Reset(uint32(lo), int(hi-lo))
	return f
}

// Reset empties the raw bins for the next scan and returns them.
func (f *Fold[V]) Reset() *Bins[V] {
	f.raw.Reset()
	return &f.raw
}

// Encode packs pairs in the fold's payload form. With Decode it makes the
// fold a Column's Wire, whose arrivals may borrow the decode staging:
// the column's scan is over before the fold begins.
func (f *Fold[V]) Encode(vs []uint32, xs []V, lo uint32, n int) []uint32 {
	return f.ops.Encode(vs, xs, lo, n)
}

// Decode decodes a payload into the decode staging, valid until the
// next call.
func (f *Fold[V]) Decode(buf []uint32) ([]uint32, []V) {
	f.decV, f.decX = f.ops.Decode(buf, f.decV, f.decX)
	return f.decV, f.decX
}

// Deliver runs the fold of one step under the schedule o.Async selects
// and returns the merged pairs owned by this rank, valid until the next
// call, with the duplicates the merges absorbed; the words received go
// to st.FoldWords. The exchange calls prep once per member, the self bin
// included; the overlapped schedule posts each bin as soon as it is
// merged.
func (f *Fold[V]) Deliver(tag int, st *Step) (vs []uint32, xs []V, absorbed int) {
	vertexCost := f.c.Model().VertexCost
	f.absorbed = 0
	prep := func(m int) []uint32 {
		lo, hi := f.l.OwnedRange(f.g.World(m))
		f.comb.Reset(uint32(lo), int(hi-lo))
		f.ops.Add(f.comb, f.raw.V[m], f.raw.X[m])
		var d int
		f.outV, f.outX, d = f.ops.Drain(f.comb, f.outV[:0], f.outX[:0])
		f.absorbed += d
		f.c.ChargeItems(len(f.outV)+d, vertexCost)
		if m == f.g.Me {
			f.ops.Add(f.own, f.outV, f.outX) // stays local, unencoded
			return nil
		}
		return f.ops.Encode(f.outV, f.outX, uint32(lo), int(hi-lo))
	}
	handle := func(m int, part []uint32) {
		if m != f.g.Me {
			pv, px := f.Decode(part)
			f.ops.Add(f.own, pv, px)
		}
	}
	o := collective.Opts{Tag: tag, Chunk: f.o.ChunkWords, Async: f.o.Async}
	st.FoldWords = collective.Exchange(f.c, f.g, o, prep, handle).RecvWords

	var d int
	f.outV, f.outX, d = f.ops.Drain(f.own, f.outV[:0], f.outX[:0])
	f.c.ChargeItems(len(f.outV)+d, vertexCost)
	return f.outV, f.outX, f.absorbed + d
}

// Value payloads share one head, [setWords, hdr..., encodedSet...]: the
// vertex set is ascending and duplicate-free (senders merge the values
// of duplicate vertices first), so it compresses under every frontier
// wire mode, and the setWords prefix keeps the payload self-describing
// under each. The family's header words, if any, and its values — in
// decoded set order — follow.

// FrameSet starts a value payload for the set vs drawn from the universe
// [lo, lo+n), with room for tail value words after the head.
// The set is encoded in place after the head, into the one allocation.
func FrameSet(vs []uint32, lo uint32, n int, mode frontier.WireMode, h *frontier.ContainerHist, tail int, hdr ...uint32) []uint32 {
	head := 1 + len(hdr)
	out := make([]uint32, head, head+frontier.EncodeSetBound(mode, n, len(vs))+tail)
	copy(out[1:], hdr)
	out = frontier.AppendEncodeSet(out, vs, lo, n, mode, h)
	out[0] = uint32(len(out) - head)
	return out
}

// UnframeSet reads the head of a non-empty payload framed with nhdr
// header words: the set, decoded into the staging vs, the header words
// and the value words that follow. A truncated payload panics.
func UnframeSet(buf, vs []uint32, nhdr int) (set, hdr, values []uint32) {
	if len(buf) < 1+nhdr || 1+nhdr+int(buf[0]) > len(buf) {
		panic("search: truncated value payload")
	}
	end := 1 + nhdr + int(buf[0])
	return frontier.AppendDecode(vs[:0], buf[1+nhdr:end]), buf[1 : 1+nhdr], buf[end:]
}
