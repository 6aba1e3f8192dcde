package collective

import (
	"fmt"

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
// union: prep(m) is the sorted set destined for member m (the codec, if
// any, is applied at the wire), and the result is the union of
// everything destined to this rank, each part merged as Exchange hands
// it over. Duplicate elimination happens after receipt (no in-flight
// reduction), so Dups counts local merge savings only; contrast with
// TwoPhaseFold.
func ReduceScatterUnion(c *comm.Comm, g comm.Group, o Opts, prep Prep) ([]uint32, Stats) {
	var acc []uint32
	first := true
	dups := 0
	wirePrep := func(m int) []uint32 {
		if m == g.Me {
			return prep(m)
		}
		return wireSet(o.Codec, m, prep(m))
	}
	st := Exchange(c, g, o, wirePrep, func(m int, part []uint32) {
		if m != g.Me && o.Codec != nil {
			part = o.Codec.Dec(g.Me, part)
		}
		if first {
			acc, first = append([]uint32(nil), part...), false
			return
		}
		var d int
		acc, d = localindex.UnionInto(acc, part)
		dups += d
	})
	st.Dups += dups
	return acc, st
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
			return o.Codec.Enc(m, prep(m))
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

// Fold delivers the sets prep produces — prep(m) the sorted set
// destined to member m — to their owners with the union fold alg names
// ("direct", "twophase" or in full "twophase-union", "twophase-nounion")
// and returns the sorted union of what was destined to this rank. Under
// o.Async the direct fold posts each set as prep returns it, so the
// merges of the later sets overlap the transfers already in flight, and
// the two-phase fold posts its phase 2 before any wait; otherwise every
// set is prepared up front in member order. The two-phase schedule
// needs every bundle before its first hop and prepares up front either
// way.
func Fold(c *comm.Comm, g comm.Group, o Opts, alg string, prep Prep) ([]uint32, Stats) {
	switch alg {
	case "direct":
		return ReduceScatterUnion(c, g, o, prep)
	case "twophase", "twophase-union", "twophase-nounion":
		o.NoUnion = o.NoUnion || alg == "twophase-nounion"
		return twoPhaseFold(c, g, o, prep)
	}
	panic(fmt.Sprintf("collective: unknown fold %q", alg))
}

// FoldAsync is Fold under the pipelined schedule, the form the perf
// lab's collective.fold_async_us probe calls.
func FoldAsync(c *comm.Comm, g comm.Group, o Opts, alg string, prep Prep) ([]uint32, Stats) {
	o.Async = true
	return Fold(c, g, o, alg, prep)
}
