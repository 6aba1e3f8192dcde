// Package collective implements every collective operation the paper
// uses or compares against, built exclusively from point-to-point
// comm sends and receives — exactly as §3.2 does on the BlueGene/L
// torus:
//
//   - Exchange (pairwise direct): personalized exchange, the "targeted
//     expand" of §2.2 and the value folds of multi-source BFS and
//     Δ-stepping; AllToAll is its synchronous body on precomputed
//     buffers.
//   - ReduceScatterUnion and ReduceScatterOr: the exchange reducing
//     what arrives by set union (the traditional fold) or bitwise OR
//     (bottom-up BFS's claims).
//   - Gather: every member's data to every member, by the ring
//     all-gather (the traditional dense-matrix expand) or the paper's
//     optimized expand (Figure 3) — phase 1 exchanges within grid
//     columns, phase 2 circulates along grid-row rings.
//   - Fold: the union fold by algorithm name — direct, or TwoPhaseFold
//     (Figure 2), the paper's optimized union-fold, whose phase 1 is a
//     grouped ring reduce-scatter along grid rows with in-flight
//     duplicate elimination and phase 2 a point-to-point distribution
//     down grid columns, with or without the in-flight union.
//
// Each exchange has one entry and one body, and Opts.Async alone picks
// its schedule: the paper's phase-synchronous one, or the overlapped one
// that posts sends before waiting and hands parts over as they arrive
// (see exchange.go). The engines never branch on it.
//
// All set-typed payloads are ascending, duplicate-free []uint32. Every
// operation returns Stats with the words this rank received and the
// duplicates eliminated by union reductions, feeding the paper's
// message-length and redundancy-ratio measurements (Table 1, Fig. 7).
package collective

import (
	"fmt"

	"repro/internal/comm"
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
	// Async selects the pipelined schedule: every send posts before any
	// wait, independent transfers progress concurrently, and parts reach
	// their handle as they arrive (see exchange.go). Payloads, tags, and
	// received words are identical to the synchronous schedule; only the
	// simulated clock — and the OverlapTime ledger — differ. Hops that
	// are serially dependent (the two-phase fold's phase-1 ring) stay
	// blocking either way.
	Async bool
	// BundleMerge, when non-nil, lets the two-phase expand recompress
	// each circulating phase-2 bundle as one merged payload; the hop
	// ships whichever of the plain framed bundle and the merged form is
	// fewer words, so configuring it can only reduce traffic.
	BundleMerge *BundleCodec
	// Codec, when non-nil, re-encodes payloads at wire boundaries
	// (typically frontier.EncodeSet picking vertex lists, bitmaps, or
	// hybrid chunk containers, whichever is fewer words). Honored by
	// the union folds — ReduceScatterUnion and TwoPhaseFold (ignored
	// under NoUnion, whose merged multisets have no set encoding) — and
	// by ReduceScatterOr, whose payloads are wire bitmaps rather than
	// sets. The pass-through exchanges (Exchange, AllToAll, Gather) move
	// opaque payloads, so their callers encode and decode at the edges
	// instead.
	Codec *Codec
}

// Codec is a pluggable payload encoding applied where payloads cross
// the wire. Enc appends the encoding of the payload destined for group
// member m — an ascending duplicate-free set in the union folds, a wire
// bitmap in the OR reductions — to dst, and Dec inverts it; both take
// the destination member m because a payload's universe (and therefore
// its decoded width, for bitmap payloads) is the destination's owned
// range. Bound(m, n) is the most words Enc may use past dst for an
// n-member set destined to m: the union folds reserve it, so a set is
// encoded in place into the buffer that travels. Received-word
// statistics count encoded words, so a denser encoding shows up directly
// in the message-volume measurements. What Dec returns must stay valid
// across later Dec calls of the same collective (a fold decodes a whole
// bundle before it merges it), and neither output is written to by the
// collectives.
type Codec struct {
	Enc   func(dst []uint32, m int, payload []uint32) []uint32
	Dec   func(m int, buf []uint32) []uint32
	Bound func(m, n int) int
}

// Sets is a union fold's input: the ascending, duplicate-free set
// destined to each group member. The fold calls Len(m) once per member
// at the moment the set is made — what making it costs is charged there
// — and later Append(dst, m) once, which appends exactly Len(m) ids to
// dst: a set is written once, into the buffer where the fold reads it
// next, often the one handed to the transport.
type Sets interface {
	Len(m int) int
	Append(dst []uint32, m int) []uint32
}

// SetList is Sets over ready lists, list m destined to member m.
type SetList [][]uint32

func (l SetList) Len(m int) int { return len(l[m]) }

func (l SetList) Append(dst []uint32, m int) []uint32 { return append(dst, l[m]...) }

// prepSets is Sets over a Prep: Len calls it and keeps the set, in a
// table lent for the call, for Append to copy.
type prepSets struct {
	prep Prep
	sets [][]uint32
}

func (p prepSets) Len(m int) int {
	p.sets[m] = p.prep(m)
	return len(p.sets[m])
}

func (p prepSets) Append(dst []uint32, m int) []uint32 { return append(dst, p.sets[m]...) }

// BundleCodec recompresses a circulating phase-2 expand bundle — the
// per-origin payloads one grid column contributed, which travel
// together for every remaining ring hop — into a single merged payload
// and back. origins are group member indices in bundle order; Split
// returns per-origin DECODED payloads (the callers of the two-phase
// expand decode at the edges anyway, and a raw id list decodes as
// itself).
type BundleCodec struct {
	Merge func(origins []int, payloads [][]uint32) []uint32
	Split func(origins []int, merged []uint32) [][]uint32
}

// isend and irecv are the transfer the exchanges are written on, one
// send or one receive posted under the schedule o.Async selects. The
// pipelined schedule hands both to the coprocessor and waits on the
// receive later; the synchronous one sends blocking and receives at the
// post — the pipelined schedule with an immediate wait — so its request
// is already complete and the bodies run the paper's blocking sequence.
func isend(c *comm.Comm, o Opts, dst, tag int, data []uint32) {
	if o.Async {
		c.IsendChunked(dst, tag, data, o.Chunk)
		return
	}
	c.SendChunked(dst, tag, data, o.Chunk)
}

func irecv(c *comm.Comm, o Opts, src, tag int) comm.Request {
	if o.Async {
		return c.IrecvChunked(src, tag, o.Chunk)
	}
	return comm.Completed(c.RecvChunked(src, tag, o.Chunk))
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

// Gather delivers every group member's data to every member with the
// expand alg names — "allgather", the ring, or "twophase", Figure 3 —
// and returns out, out[i] member i's data (out[g.Me] aliases data).
// handle, when non-nil, sees every part once, this rank's own included:
// under the pipelined schedule as each is in hand, its compute hiding
// the transfers still in flight; under the synchronous one in member
// order once the last part has arrived, the rule Exchange follows.
func Gather(c *comm.Comm, g comm.Group, o Opts, alg string, data []uint32, handle Handle) ([][]uint32, Stats) {
	out := make([][]uint32, g.Size())
	out[g.Me] = data
	ready := func(m int) {
		if o.Async && handle != nil {
			handle(m, out[m])
		}
	}
	var st Stats
	switch alg {
	case "allgather":
		st = ringGather(c, g, o, out, ready)
	case "twophase":
		st = twoPhaseExpand(c, g, o, out, ready)
	default:
		panic(fmt.Sprintf("collective: unknown gather %q", alg))
	}
	if !o.Async && handle != nil {
		for m, part := range out {
			handle(m, part)
		}
	}
	return out, st
}

// ringGather is the ring all-gather, the traditional expand for dense
// problems — message volume grows with the group, the reason §2.2
// prefers targeted exchange for sparse frontiers: G-1 steps, each
// member forwarding the piece it received in the previous step to the
// next. Each hop's forward posts before the piece in hand is readied,
// so on the pipelined schedule the piece's handling hides the hop.
func ringGather(c *comm.Comm, g comm.Group, o Opts, out [][]uint32, ready func(m int)) Stats {
	size := g.Size()
	var st Stats
	if size == 1 {
		ready(g.Me)
		return st
	}
	tr := begin(c, "allgather")
	next := g.World(g.Next(g.Me))
	prev := g.World(g.Prev(g.Me))
	piece := out[g.Me]
	pend := g.Me // own piece processes under the first hop
	for step := 0; step < size-1; step++ {
		isend(c, o, next, o.Tag+step, piece)
		req := irecv(c, o, prev, o.Tag+step)
		ready(pend) // forwarded above; process under the next hop
		piece = req.Wait()
		srcIdx := g.Me - step - 1
		for srcIdx < 0 {
			srcIdx += size
		}
		out[srcIdx] = piece
		st.RecvWords += len(piece)
		pend = srcIdx
	}
	ready(pend)
	end(tr, &st)
	return st
}

// AllToAll performs a personalized exchange on the synchronous
// schedule: send[i] goes to member i (send[g.Me] stays local). out[i]
// is the payload from member i. The schedule is the rotation pairing:
// at step s every member sends to (me+s) and receives from (me-s), so
// each pair's traffic is one message per direction per step.
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
