package collective

import (
	"fmt"
	"slices"

	"repro/internal/comm"
	"repro/internal/localindex"
)

// The two schedules an exchange runs under. The payloads, tags,
// chunking, and received-word statistics are identical — only the
// schedule changes. The pipelined one (Opts.Async):
//
//   - every send is posted before any wait, so all transfers are in
//     flight concurrently instead of serializing one transit per
//     pairwise step;
//   - parts are delivered to the caller through a handle as each one
//     completes, so the caller's per-part compute charges (the hash
//     probes and scans that dominate §4.2's profile) hide the wire time
//     of the parts still in flight.
//
// The synchronous one prepares every payload up front in member order,
// runs the paper's blocking sequence, and hands every part — the self
// part included — to the handle in member order once the last one has
// arrived.
//
// Hidden wire seconds are audited by comm.Comm.OverlapTime. Results are
// bit-identical across the schedules: the engines only ever combine
// parts with order-insensitive reductions (set union, min-merge,
// bitwise OR).

// Prep produces the payload destined to group member m. The pipelined
// exchanges call it immediately before posting m's send (self last,
// after every send is posted), so compute charged inside Prep — merge,
// encode — overlaps the transfers already in flight.
type Prep func(m int) []uint32

// Handle consumes one completed part. The pipelined exchanges invoke it
// with the self part first and then every received part in the
// synchronous step order; compute charged inside Handle hides the
// remaining parts' wire time.
type Handle func(m int, part []uint32)

// prepared wraps precomputed send buffers as a Prep.
func prepared(send [][]uint32) Prep {
	return func(m int) []uint32 { return send[m] }
}

// allToAllAsync performs the personalized exchange of AllToAll with the
// pipelined schedule, handing every part to handle; the parts and Stats
// match AllToAll exactly.
func allToAllAsync(c *comm.Comm, g comm.Group, o Opts, prep Prep, handle Handle) Stats {
	size := g.Size()
	var st Stats
	if size == 1 {
		handle(0, prep(0))
		return st
	}
	tr := begin(c, "alltoall-async")
	for step := 1; step < size; step++ {
		to := (g.Me + step) % size
		c.IsendChunked(g.World(to), o.Tag+step, prep(to), o.Chunk)
	}
	reqs := c.Requests(size)
	for step := 1; step < size; step++ {
		from := (g.Me - step + size) % size
		reqs[step] = c.IrecvChunked(g.World(from), o.Tag+step, o.Chunk)
	}
	handle(g.Me, prep(g.Me))
	for step := 1; step < size; step++ {
		part := reqs[step].Wait()
		st.RecvWords += len(part)
		handle((g.Me-step+size)%size, part)
	}
	c.ReleaseRequests(reqs)
	end(tr, &st)
	return st
}

// Exchange is the personalized exchange under the schedule o.Async
// selects: the pipelined exchange as it is, or AllToAll with every
// payload prepared up front in member order and every part — the self
// part included — handled in member order after the last one has
// arrived. The two step orders really differ (the synchronous one pairs
// each step's send with its receive), so each keeps its own body.
func Exchange(c *comm.Comm, g comm.Group, o Opts, prep Prep, handle Handle) Stats {
	if o.Async {
		return allToAllAsync(c, g, o, prep, handle)
	}
	send := c.Lists(g.Size())
	for m := range send {
		send[m] = prep(m)
	}
	parts, st := AllToAll(c, g, o, send)
	c.ReleaseLists(send)
	for m, part := range parts {
		handle(m, part)
	}
	return st
}

// ReduceScatterUnion performs fold as a direct reduce-scatter with set
// union: sets holds the sorted set destined for each member, and the
// result is the union of everything destined to this rank, each part
// merged as Exchange hands it over. A set that travels is written
// straight into the buffer the transport is handed or, with a codec,
// encoded there from a scratch copy; this rank's own stays in scratch.
// Duplicate elimination happens after receipt (no in-flight reduction),
// so Dups counts local merge savings only; contrast with TwoPhaseFold.
func ReduceScatterUnion(c *comm.Comm, g comm.Group, o Opts, sets Sets) ([]uint32, Stats) {
	acc := newUnion(c, nil, g.Size())
	own, scratch := c.Words(), c.Words()
	wirePrep := func(m int) []uint32 {
		n := sets.Len(m)
		switch {
		case m == g.Me:
			own = sets.Append(slices.Grow(own, n), m)
			return own
		case o.Codec == nil:
			return sets.Append(make([]uint32, 0, n), m)
		}
		scratch = sets.Append(scratch[:0], m)
		return o.Codec.Enc(nil, m, scratch)
	}
	st := Exchange(c, g, o, wirePrep, func(m int, part []uint32) {
		if m != g.Me && o.Codec != nil {
			part = o.Codec.Dec(g.Me, part)
		}
		acc.add(part)
	})
	st.Dups += acc.dups
	res := acc.done()
	c.ReleaseWords(scratch)
	c.ReleaseWords(own)
	return res, st
}

// union accumulates the union of a fold's arriving parts. Every merge
// but the last lands in one of two buffers borrowed from the rank's
// Comm, the one the running union is not in; the last writes fresh
// memory, the result the caller keeps. Nothing is written into a part.
type union struct {
	c    *comm.Comm
	buf  [2][]uint32
	k    int      // the buffer the next merge writes
	acc  []uint32 // the union so far, read-only
	left int      // parts still to come
	dups int      // elements of the parts already in acc
}

// newUnion starts a union at acc, read-only, that parts more parts
// extend.
func newUnion(c *comm.Comm, acc []uint32, parts int) union {
	return union{c: c, buf: [2][]uint32{c.Words(), c.Words()}, acc: acc, left: parts}
}

// add merges the next sorted duplicate-free part into the union.
func (u *union) add(part []uint32) {
	u.left--
	var d int
	if u.left == 0 {
		u.acc, d = localindex.UnionSorted(u.acc, part)
	} else {
		u.buf[u.k], d = localindex.UnionInto(u.buf[u.k][:0], u.acc, part)
		u.acc, u.k = u.buf[u.k], u.k^1
	}
	u.dups += d
}

// done returns the union once every part has been added, and hands the
// merge buffers back.
func (u *union) done() []uint32 {
	u.c.ReleaseWords(u.buf[1])
	u.c.ReleaseWords(u.buf[0])
	return u.acc
}

// ReduceScatterOr reduce-scatters wire bitmaps with bitwise OR: prep(m)
// is a []uint32 word bitmap destined for group member m, and the result
// is the OR of every bitmap destined to this rank. Payloads destined to
// one member are normally equal-length; stragglers are OR'd into a
// result sized to the longest.
//
// This is the delivery step of the bottom-up BFS direction: each rank's
// parent-found claims over a block of vertices are OR-combined at the
// block's owner, the bitmap analogue of the union fold (a duplicate
// claim costs one bit, not one word, so no Dups are recorded). With
// o.Codec set, each claim bitmap is re-encoded for the wire (hybrid
// chunk containers when sparser than the raw words) and decoded back
// before the OR; RecvWords counts the encoded words. handle, when
// non-nil, sees each part in its wire form, before the codec decodes
// it, so callers can charge what they received.
func ReduceScatterOr(c *comm.Comm, g comm.Group, o Opts, prep Prep, handle Handle) ([]uint32, Stats) {
	var acc []uint32
	wirePrep := func(m int) []uint32 {
		if o.Codec != nil && m != g.Me {
			return o.Codec.Enc(nil, m, prep(m))
		}
		return prep(m)
	}
	st := Exchange(c, g, o, wirePrep, func(m int, part []uint32) {
		if handle != nil {
			handle(m, part)
		}
		if m != g.Me && o.Codec != nil {
			part = o.Codec.Dec(g.Me, part)
		}
		if len(part) > len(acc) {
			grown := make([]uint32, len(part))
			copy(grown, acc)
			acc = grown
		}
		for j, w := range part {
			acc[j] |= w
		}
	})
	return acc, st
}

// Fold delivers sets — the sorted set destined to each member — to
// their owners with the union fold alg names ("direct", "twophase" or in
// full "twophase-union", "twophase-nounion") and returns the sorted
// union of what was destined to this rank. Under o.Async the direct fold
// makes and posts each set in turn, so the making of the later sets
// overlaps the transfers already in flight, and the two-phase fold posts
// its phase 2 before any wait; otherwise every set is made up front in
// member order. The two-phase schedule needs every bundle before its
// first hop and makes every set up front either way.
func Fold(c *comm.Comm, g comm.Group, o Opts, alg string, sets Sets) ([]uint32, Stats) {
	switch alg {
	case "direct":
		return ReduceScatterUnion(c, g, o, sets)
	case "twophase", "twophase-union", "twophase-nounion":
		o.NoUnion = o.NoUnion || alg == "twophase-nounion"
		return twoPhaseFold(c, g, o, sets)
	}
	panic(fmt.Sprintf("collective: unknown fold %q", alg))
}

// FoldAsync is Fold under the pipelined schedule with prep(m) the set
// destined to member m, copied where it travels — the form the perf
// lab's collective.fold_async_us probe calls.
func FoldAsync(c *comm.Comm, g comm.Group, o Opts, alg string, prep Prep) ([]uint32, Stats) {
	o.Async = true
	sets := prepSets{prep, c.Lists(g.Size())}
	defer c.ReleaseLists(sets.sets)
	return Fold(c, g, o, alg, sets)
}
