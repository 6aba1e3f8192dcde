package collective

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/localindex"
)

// Asynchronous (pipelined) variants of the collectives. The payloads,
// tags, chunking, and received-word statistics are identical to the
// synchronous operations — only the schedule changes:
//
//   - every send is posted before any wait, so all transfers are in
//     flight concurrently instead of serializing one transit per
//     pairwise step;
//   - parts are delivered to the caller through a handle as each one
//     completes, so the caller's per-part compute charges (the hash
//     probes and scans that dominate §4.2's profile) hide the wire time
//     of the parts still in flight.
//
// Hidden wire seconds are audited by comm.Comm.OverlapTime. Results are
// bit-identical to the synchronous path: the engines only ever combine
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
// selects, for callers that produce and consume payloads the same way
// under both: the pipelined exchange as it is, or AllToAll with every
// payload prepared up front in member order and every part — the self
// part included — handled in member order after the last one has
// arrived.
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

// AllGatherAsync is the ring all-gather with each hop's forward posted
// before the previous piece is processed: handle sees every piece in
// ring order — this rank's own data first, right after the first
// forward posts — and its compute hides the next hop's transit.
// Callers mirroring the synchronous charge of received words only skip
// the m == g.Me invocation. out and Stats match AllGather exactly.
func AllGatherAsync(c *comm.Comm, g comm.Group, o Opts, data []uint32, handle Handle) ([][]uint32, Stats) {
	size := g.Size()
	out := make([][]uint32, size)
	out[g.Me] = data
	var st Stats
	if size == 1 {
		if handle != nil {
			handle(g.Me, data)
		}
		return out, st
	}
	tr := begin(c, "allgather-async")
	next := g.World(g.Next(g.Me))
	prev := g.World(g.Prev(g.Me))
	piece := data
	pendIdx := g.Me // own piece processes under the first hop
	for step := 0; step < size-1; step++ {
		c.IsendChunked(next, o.Tag+step, piece, o.Chunk)
		req := c.IrecvChunked(prev, o.Tag+step, o.Chunk)
		if handle != nil {
			handle(pendIdx, out[pendIdx]) // forwarded above; process under the next hop
		}
		piece = req.Wait()
		srcIdx := g.Me - step - 1
		for srcIdx < 0 {
			srcIdx += size
		}
		out[srcIdx] = piece
		st.RecvWords += len(piece)
		pendIdx = srcIdx
	}
	if handle != nil {
		handle(pendIdx, out[pendIdx])
	}
	end(tr, &st)
	return out, st
}

// ReduceScatterUnionAsync is the direct union fold on the pipelined
// exchange: prep returns the sorted set destined to member m (the codec,
// if any, is applied at the wire), and every part union-merges into the
// accumulator as it completes. Result and Stats match ReduceScatterUnion.
func ReduceScatterUnionAsync(c *comm.Comm, g comm.Group, o Opts, prep Prep) ([]uint32, Stats) {
	var acc []uint32
	accSet := false
	var dups int
	wirePrep := func(m int) []uint32 {
		s := prep(m)
		if m != g.Me {
			return wireSet(o.Codec, m, s)
		}
		return s
	}
	handle := func(m int, part []uint32) {
		if m != g.Me && o.Codec != nil {
			part = o.Codec.Dec(g.Me, part)
		}
		if !accSet {
			acc = append([]uint32(nil), part...)
			accSet = true
			return
		}
		var d int
		acc, d = localindex.UnionInto(acc, part)
		dups += d
	}
	st := allToAllAsync(c, g, o, wirePrep, handle)
	st.Dups += dups
	return acc, st
}

// ReduceScatterOrAsync is ReduceScatterOr on the pipelined exchange:
// each claim bitmap ORs into the accumulator as it completes. handle
// (if any) sees each part in its wire form, before the codec decodes
// it, so callers can mirror the synchronous received-word charges.
func ReduceScatterOrAsync(c *comm.Comm, g comm.Group, o Opts, prep Prep, handle Handle) ([]uint32, Stats) {
	var acc []uint32
	orPart := func(m int, part []uint32) {
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
	}
	wirePrep := func(m int) []uint32 {
		s := prep(m)
		if o.Codec != nil && m != g.Me {
			return o.Codec.Enc(m, s)
		}
		return s
	}
	return acc, allToAllAsync(c, g, o, wirePrep, orPart)
}

// TwoPhaseExpandAsync is TwoPhaseExpand with the pipelined schedule:
// phase 1's column exchange streams pieces through handle, and each
// phase-2 ring hop forwards the received bundle before its sets are
// processed, hiding the next hop's transit under handle's compute.
// out[i] and Stats match TwoPhaseExpand (including Opts.BundleMerge
// recompression when configured).
func TwoPhaseExpandAsync(c *comm.Comm, g comm.Group, o Opts, data []uint32, handle Handle) ([][]uint32, Stats) {
	size := g.Size()
	var st Stats
	out := make([][]uint32, size)
	out[g.Me] = data
	if size == 1 {
		if handle != nil {
			handle(g.Me, data)
		}
		return out, st
	}
	tr := begin(c, "twophase-expand-async")
	a, b := FactorGrid(size)
	row, col := g.Me/b, g.Me%b
	next := g.World(row*b + (col+1)%b)
	prev := g.World(row*b + (col-1+b)%b)
	tag2 := o.Tag + 1<<20

	// Phase 1: exchange within my grid column, all sends posted before
	// any compute. A single-row grid's phase-2 bundle is just my own
	// data, so its first hop posts immediately too.
	colSets := make([][]uint32, a)
	colSets[row] = data
	for i := 0; i < a; i++ {
		if i != row {
			c.IsendChunked(g.World(i*b+col), o.Tag+row, data, o.Chunk)
		}
	}
	reqs := c.Requests(a)
	for i := 0; i < a; i++ {
		if i != row {
			reqs[i] = c.IrecvChunked(g.World(i*b+col), o.Tag+i, o.Chunk)
		}
	}
	var wire []uint32
	var p2req comm.Request
	p2posted := false
	if b > 1 && a == 1 {
		wire = bundleForWire(o, g, col, colSets)
		c.IsendChunked(next, tag2, wire, o.Chunk)
		p2req, p2posted = c.IrecvChunked(prev, tag2, o.Chunk), true
	}

	// My own portion processes under the transfers just posted; then
	// each phase-1 piece is handled while the next is in flight, keeping
	// the last one pending so it can hide phase 2's first hop instead.
	if handle != nil {
		handle(g.Me, data)
	}
	pendP1 := -1
	for i := 0; i < a; i++ {
		if i == row {
			continue
		}
		if pendP1 >= 0 && handle != nil {
			handle(pendP1*b+col, colSets[pendP1])
		}
		colSets[i] = reqs[i].Wait()
		st.RecvWords += len(colSets[i])
		out[i*b+col] = colSets[i]
		pendP1 = i
	}
	c.ReleaseRequests(reqs)

	// Phase 2: circulate bundles along my grid-row ring. Each hop's
	// forward posts before the pending sets are handled, so their scan
	// hides the hop's transit; received bundles forward verbatim.
	if b > 1 {
		if !p2posted {
			wire = bundleForWire(o, g, col, colSets)
			c.IsendChunked(next, tag2, wire, o.Chunk)
			p2req = c.IrecvChunked(prev, tag2, o.Chunk)
		}
		if pendP1 >= 0 && handle != nil {
			handle(pendP1*b+col, colSets[pendP1])
		}
		var pend [][]uint32 // sets waiting to be handled
		pendCol := -1
		for s := 0; s < b-1; s++ {
			if s > 0 {
				c.IsendChunked(next, tag2+s, wire, o.Chunk)
				p2req = c.IrecvChunked(prev, tag2+s, o.Chunk)
			}
			if pendCol >= 0 && handle != nil {
				for i := 0; i < a; i++ {
					handle(i*b+pendCol, pend[i])
				}
			}
			buf := p2req.Wait()
			st.RecvWords += len(buf)
			wire = buf // forward verbatim next hop
			srcCol := (col - s - 1 + b) % b
			bundle := bundleFromWire(o, g, srcCol, buf, a)
			for i := 0; i < a; i++ {
				out[i*b+srcCol] = bundle[i]
			}
			pend, pendCol = bundle, srcCol
		}
		if pendCol >= 0 && handle != nil {
			for i := 0; i < a; i++ {
				handle(i*b+pendCol, pend[i])
			}
		}
	} else if pendP1 >= 0 && handle != nil {
		handle(pendP1*b+col, colSets[pendP1])
	}
	end(tr, &st)
	return out, st
}

// Fold delivers the sets prep produces — prep(m) the sorted set
// destined to member m — to their owners with the union fold alg names
// ("direct", "twophase" or in full "twophase-union", "twophase-nounion")
// and returns the sorted union of what was destined to this rank. It is
// the one place a fold's schedule is chosen: under o.Async the direct
// fold posts each set as prep returns it, so the merges of the later
// sets overlap the transfers already in flight, and the two-phase fold
// posts its phase 2 before any wait; otherwise every set is prepared up
// front in member order and the phase-synchronous collective runs. The
// two-phase schedule needs every bundle before its first hop and
// prepares up front either way.
func Fold(c *comm.Comm, g comm.Group, o Opts, alg string, prep Prep) ([]uint32, Stats) {
	switch alg {
	case "direct":
		if o.Async {
			return ReduceScatterUnionAsync(c, g, o, prep)
		}
	case "twophase", "twophase-union", "twophase-nounion":
		o.NoUnion = o.NoUnion || alg == "twophase-nounion"
		return twoPhaseFold(c, g, o, prep)
	default:
		panic(fmt.Sprintf("collective: unknown fold %q", alg))
	}
	send := c.Lists(g.Size())
	defer c.ReleaseLists(send)
	for m := range send {
		send[m] = prep(m)
	}
	return ReduceScatterUnion(c, g, o, send)
}

// FoldAsync is Fold under the pipelined schedule.
func FoldAsync(c *comm.Comm, g comm.Group, o Opts, alg string, prep Prep) ([]uint32, Stats) {
	o.Async = true
	return Fold(c, g, o, alg, prep)
}
