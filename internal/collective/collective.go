// Package collective implements every collective operation the paper
// uses or compares against, built exclusively from point-to-point
// comm.Send/Recv — exactly as §3.2 does on the BlueGene/L torus:
//
//   - AllGather (ring): the traditional dense-matrix expand.
//   - AllToAll (pairwise direct): personalized exchange, the
//     traditional fold and the "targeted expand" of §2.2.
//   - ReduceScatterUnion (direct): fold as a reduce-scatter whose
//     reduction operator is set union.
//   - TwoPhaseFold (Figure 2): the paper's optimized union-fold —
//     phase 1 is a grouped ring reduce-scatter along grid rows with
//     in-flight duplicate elimination, phase 2 is point-to-point
//     distribution down grid columns.
//   - TwoPhaseExpand (Figure 3): the paper's optimized expand —
//     phase 1 exchanges within grid columns, phase 2 circulates along
//     grid-row rings.
//   - Broadcast (ring): used for one-to-all announcements; the real
//     machine had a tree network for this.
//   - Fold: the union fold by algorithm name (direct, two-phase with or
//     without the in-flight union) — the one place a fold's schedule,
//     phase-synchronous or overlapped, is chosen.
//   - Exchange: the personalized exchange for callers that produce and
//     consume payloads the same way under both schedules (the value
//     folds and targeted expands of multi-source BFS and Δ-stepping).
//
// All set-typed payloads are ascending, duplicate-free []uint32. Every
// operation returns Stats with the words this rank received and the
// duplicates eliminated by union reductions, feeding the paper's
// message-length and redundancy-ratio measurements (Table 1, Fig. 7).
package collective

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/localindex"
	"repro/internal/trace"
)

// Opts carries per-operation knobs.
type Opts struct {
	// Tag namespaces this operation's messages. Successive collectives
	// on the same group must use distinct tags only for debuggability;
	// FIFO ordering already keeps them apart.
	Tag int
	// Chunk > 0 splits every physical message into chunks of at most
	// Chunk words (the fixed-length buffers of §3.1).
	Chunk int
	// NoUnion disables the in-flight set-union reduction of
	// TwoPhaseFold: messages accumulate duplicates in transit and are
	// deduplicated only on final receipt. The result is identical; the
	// traffic is not. This is the baseline against which the paper's
	// union-fold saves up to 80% of received vertices (Fig. 7).
	NoUnion bool
	// Async selects the pipelined schedule where an operation supports
	// one: every send posts before any wait and independent transfers
	// progress concurrently (see async.go). Payloads, tags, and received
	// words are identical to the synchronous schedule; only the simulated
	// clock — and the OverlapTime ledger — differ. Operations whose hops
	// are serially dependent (the two-phase fold's phase-1 ring) ignore
	// the knob for those hops.
	Async bool
	// BundleMerge, when non-nil, lets TwoPhaseExpand recompress each
	// circulating phase-2 bundle as one merged payload; the hop ships
	// whichever of the plain framed bundle and the merged form is fewer
	// words, so configuring it can only reduce traffic.
	BundleMerge *BundleCodec
	// Codec, when non-nil, re-encodes payloads at wire boundaries
	// (typically frontier.EncodeSet picking vertex lists, bitmaps, or
	// hybrid chunk containers, whichever is fewer words). Honored by
	// the union folds — ReduceScatterUnion and TwoPhaseFold (ignored
	// under NoUnion, whose merged multisets have no set encoding) — and
	// by ReduceScatterOr, whose payloads are wire bitmaps rather than
	// sets. The pass-through exchanges (AllGather, AllToAll,
	// TwoPhaseExpand) move opaque payloads, so their callers encode and
	// decode at the edges instead.
	Codec *Codec
}

// Codec is a pluggable payload encoding applied where payloads cross
// the wire. Enc encodes the payload destined for group member m — an
// ascending duplicate-free set in the union folds, a wire bitmap in
// the OR reductions — and Dec inverts it; both take the destination
// member m because a payload's universe (and therefore its decoded
// width, for bitmap payloads) is the destination's owned range.
// Received-word statistics count encoded words, so a denser encoding
// shows up directly in the message-volume measurements.
type Codec struct {
	Enc func(m int, payload []uint32) []uint32
	Dec func(m int, buf []uint32) []uint32
}

// BundleCodec recompresses a circulating phase-2 expand bundle — the
// per-origin payloads one grid column contributed, which travel
// together for every remaining ring hop — into a single merged payload
// and back. origins are group member indices in bundle order; Split
// returns per-origin DECODED payloads (the callers of TwoPhaseExpand
// decode at the edges anyway, and a raw id list decodes as itself).
type BundleCodec struct {
	Merge func(origins []int, payloads [][]uint32) []uint32
	Split func(origins []int, merged []uint32) [][]uint32
}

// wireSet readies the set a union fold sends to group member m: the
// codec's encoding, or without a codec a copy. Either way the caller's
// set is not what travels — a fold never hands its input to the
// transport, so the engines may keep scanning into the same bins level
// after level.
func wireSet(cdc *Codec, m int, set []uint32) []uint32 {
	if cdc != nil {
		return cdc.Enc(m, set)
	}
	return append(make([]uint32, 0, len(set)), set...)
}

// encodeSends readies every set that will cross the wire (send[g.Me]
// stays local and plain).
func encodeSends(g comm.Group, cdc *Codec, send [][]uint32) [][]uint32 {
	out := make([][]uint32, len(send))
	for i, s := range send {
		if i == g.Me {
			out[i] = s
			continue
		}
		out[i] = wireSet(cdc, i, s)
	}
	return out
}

// decodeParts inverts encodeSends on the receive side, in place. Every
// decoded part is destined to this rank, so g.Me names its universe.
func decodeParts(g comm.Group, cdc *Codec, parts [][]uint32) {
	if cdc == nil {
		return
	}
	for i := range parts {
		if i != g.Me {
			parts[i] = cdc.Dec(g.Me, parts[i])
		}
	}
}

// begin opens a structural trace span for one collective operation on
// this rank's tracer (a no-op without a bound recorder) and returns the
// tracer for the matching end.
func begin(c *comm.Comm, name string) *trace.Tracer {
	tr := c.Tracer()
	tr.Begin("collective", name)
	return tr
}

// end closes the span begin opened, annotating the words this rank
// received.
func end(tr *trace.Tracer, st *Stats) {
	tr.End(trace.Arg{Key: "recv_words", Val: int64(st.RecvWords)})
}

// round wraps one exchange step in a structural span.
func round(c *comm.Comm, i int) func() {
	tr := c.Tracer()
	if tr == nil {
		return func() {}
	}
	tr.Begin("round", "round", trace.Arg{Key: "i", Val: int64(i)})
	return func() { tr.End() }
}

// Stats reports what one rank observed during a collective.
type Stats struct {
	RecvWords int // payload words received (vertices, in BFS terms)
	Dups      int // duplicate vertices eliminated by union reductions
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.RecvWords += other.RecvWords
	s.Dups += other.Dups
}

// AllGather gathers each group member's data; out[i] is member i's
// contribution. Implemented as a ring: G-1 steps, each member forwards
// the piece it received in the previous step. This is the traditional
// expand for dense problems — message volume grows with the group, the
// reason §2.2 prefers targeted exchange for sparse frontiers.
func AllGather(c *comm.Comm, g comm.Group, o Opts, data []uint32) ([][]uint32, Stats) {
	size := g.Size()
	out := make([][]uint32, size)
	out[g.Me] = data
	var st Stats
	if size == 1 {
		return out, st
	}
	tr := begin(c, "allgather")
	next := g.World(g.Next(g.Me))
	prev := g.World(g.Prev(g.Me))
	piece := data
	for step := 0; step < size-1; step++ {
		stepDone := round(c, step)
		c.SendChunked(next, o.Tag+step, piece, o.Chunk)
		piece = c.RecvChunked(prev, o.Tag+step, o.Chunk)
		srcIdx := g.Me - step - 1
		for srcIdx < 0 {
			srcIdx += size
		}
		out[srcIdx] = piece
		st.RecvWords += len(piece)
		stepDone()
	}
	end(tr, &st)
	return out, st
}

// AllToAll performs a personalized exchange: send[i] goes to member i
// (send[g.Me] stays local). out[i] is the payload from member i. The
// schedule is the rotation pairing: at step s every member sends to
// (me+s) and receives from (me-s), so each pair's traffic is one
// message per direction per step.
func AllToAll(c *comm.Comm, g comm.Group, o Opts, send [][]uint32) ([][]uint32, Stats) {
	size := g.Size()
	if len(send) != size {
		panic(fmt.Sprintf("collective: AllToAll needs %d send buffers, got %d", size, len(send)))
	}
	out := make([][]uint32, size)
	out[g.Me] = send[g.Me]
	var st Stats
	tr := begin(c, "alltoall")
	for step := 1; step < size; step++ {
		stepDone := round(c, step)
		to := (g.Me + step) % size
		from := (g.Me - step + size) % size
		c.SendChunked(g.World(to), o.Tag+step, send[to], o.Chunk)
		out[from] = c.RecvChunked(g.World(from), o.Tag+step, o.Chunk)
		st.RecvWords += len(out[from])
		stepDone()
	}
	end(tr, &st)
	return out, st
}

// ReduceScatterUnion performs fold as a direct reduce-scatter with set
// union: send[i] (sorted set) is destined for member i; the result is
// the union of everything destined to this rank. Duplicate elimination
// happens after receipt (no in-flight reduction), so Dups counts local
// merge savings only; contrast with TwoPhaseFold.
func ReduceScatterUnion(c *comm.Comm, g comm.Group, o Opts, send [][]uint32) ([]uint32, Stats) {
	var st Stats
	tr := begin(c, "rs-union")
	parts, ast := AllToAll(c, g, o, encodeSends(g, o.Codec, send))
	st = ast
	decodeParts(g, o.Codec, parts)
	acc := append([]uint32(nil), parts[g.Me]...)
	for i, p := range parts {
		if i == g.Me {
			continue
		}
		var d int
		acc, d = localindex.UnionInto(acc, p)
		st.Dups += d
	}
	end(tr, &st)
	return acc, st
}

// Broadcast sends root's data to every group member along the ring.
// Returns the data (root gets its own slice back).
func Broadcast(c *comm.Comm, g comm.Group, o Opts, root int, data []uint32) ([]uint32, Stats) {
	size := g.Size()
	var st Stats
	if size == 1 {
		return data, st
	}
	tr := begin(c, "bcast")
	// Position relative to root along the ring.
	rel := (g.Me - root + size) % size
	if rel != 0 {
		data = c.RecvChunked(g.World(g.Prev(g.Me)), o.Tag, o.Chunk)
		st.RecvWords += len(data)
	}
	if rel != size-1 {
		c.SendChunked(g.World(g.Next(g.Me)), o.Tag, data, o.Chunk)
	}
	end(tr, &st)
	return data, st
}
