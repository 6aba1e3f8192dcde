package collective

import (
	"fmt"
	"slices"

	"repro/internal/comm"
	"repro/internal/localindex"
)

// FactorGrid factors a group of size g into rows x cols with
// rows*cols = g and cols the largest divisor of g not exceeding
// sqrt(g). The two-phase collectives of §3.2.2 run phase 1 along grid
// rows (cols members) and phase 2 along grid columns (rows members),
// giving O(rows + cols) steps instead of O(g).
func FactorGrid(g int) (rows, cols int) {
	if g <= 0 {
		panic(fmt.Sprintf("collective: invalid group size %d", g))
	}
	cols = 1
	for d := 1; d*d <= g; d++ {
		if g%d == 0 {
			cols = d
		}
	}
	return g / cols, cols
}

// bundle wire format: k sets are encoded as k (length, payload...)
// sections. The two-phase collectives move bundles of per-destination
// (fold) or per-source (expand) sets.

func encodeBundle(sets [][]uint32) []uint32 {
	total := 0
	for _, s := range sets {
		total += 1 + len(s)
	}
	buf := make([]uint32, 0, total)
	for _, s := range sets {
		buf = append(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

func decodeBundle(buf []uint32, k int) [][]uint32 {
	return decodeBundleInto(make([][]uint32, k), buf)
}

// decodeBundleInto splits buf into the len(sets) sections it frames,
// storing them in sets.
func decodeBundleInto(sets [][]uint32, buf []uint32) [][]uint32 {
	pos := 0
	for i := range sets {
		if pos >= len(buf) {
			panic("collective: truncated bundle")
		}
		n := int(buf[pos])
		pos++
		sets[i] = buf[pos : pos+n : pos+n]
		pos += n
	}
	if pos != len(buf) {
		panic("collective: trailing bytes in bundle")
	}
	return sets
}

// TwoPhaseFold is the paper's optimized union-fold (Figure 2): a
// reduce-scatter whose reduction operator is set union, run on an
// a x b grid factoring of the group.
//
// Phase 1 is a ring reduce-scatter along each grid row: the bundle
// destined to grid column j circulates and accumulates the set-union of
// every row member's contribution, eliminating duplicates in flight —
// this is where the redundancy-ratio savings of Fig. 7 come from.
// Phase 2 distributes the accumulated per-destination sets directly
// down each grid column.
//
// send[i] is the sorted set destined for group member i; the result is
// the union of all sets destined to this rank.
func TwoPhaseFold(c *comm.Comm, g comm.Group, o Opts, send [][]uint32) ([]uint32, Stats) {
	if len(send) != g.Size() {
		panic(fmt.Sprintf("collective: TwoPhaseFold needs %d send buffers, got %d", g.Size(), len(send)))
	}
	return twoPhaseFold(c, g, o, SetList(send))
}

// twoPhaseFold is TwoPhaseFold on sets, made (Len) once per member in
// member order before anything is sent. Every set is written once, where
// it is read next: straight into the bundle it leaves in — with a codec,
// encoded there in place — merged on the way with the matching set of
// the bundle that arrived (mergeHeld), or, for this rank's column, into
// the phase-2 wire set it becomes.
func twoPhaseFold(c *comm.Comm, g comm.Group, o Opts, sets Sets) ([]uint32, Stats) {
	size := g.Size()
	var st Stats
	if size == 1 {
		return sets.Append(make([]uint32, 0, sets.Len(0)), 0), st
	}
	tr := begin(c, "twophase-fold")
	a, b := FactorGrid(size)
	row, col := g.Me/b, g.Me%b
	// With a codec, each set is encoded for the wire on every hop and
	// decoded back before the in-flight union (bitmap payloads when
	// denser is cheaper); NoUnion skips the codec because its in-transit
	// payloads are merged multisets with no set encoding.
	cdc, merge := o.Codec, localindex.UnionInto
	if o.NoUnion {
		cdc, merge = nil, appendKeepDups
	}
	// Bundle idx holds the sets of the a members of grid column
	// (idx-1) mod b; the +1 shift makes the textbook ring schedule finish
	// with this rank owning its own column's bundle.
	member := func(idx, i int) int { return i*b + (idx-1+b)%b }
	lens := slices.Grow(c.Words(), size)[:size]
	for m := range size {
		lens[m] = uint32(sets.Len(m))
	}
	scratch, own := c.Words(), c.Words()
	// write appends member m's set, merged with in, to dst — encoded when
	// it travels and there is a codec — and bound is the most words that
	// takes on the wire.
	write := func(dst []uint32, m int, in []uint32, travels bool) []uint32 {
		var d int
		if travels && cdc != nil {
			scratch, d = mergeHeld(scratch[:0], sets, m, int(lens[m]), in, merge)
			dst = cdc.Enc(dst, m, scratch)
		} else {
			dst, d = mergeHeld(dst, sets, m, int(lens[m]), in, merge)
		}
		st.Dups += d
		return dst
	}
	bound := func(m int, in []uint32) int {
		if cdc != nil {
			return cdc.Bound(m, int(lens[m])+len(in))
		}
		return int(lens[m]) + len(in)
	}
	// incoming is the bundle that arrived last, decoded; none has before
	// the first hop.
	incoming := c.Lists(a)
	idx := col // the bundle that leaves next
	if b > 1 {
		tr.Begin("phase", "phase1")
		next := g.World(row*b + (col+1)%b)
		prev := g.World(row*b + (col-1+b)%b)
		for s := 0; s < b-1; s++ {
			stepDone := round(c, s)
			need := 0
			for i, in := range incoming {
				need += 1 + bound(member(idx, i), in)
			}
			out := make([]uint32, 0, need)
			for i, in := range incoming {
				out = append(out, 0)
				k := len(out)
				out = write(out, member(idx, i), in, true)
				out[k-1] = uint32(len(out) - k)
			}
			c.SendChunked(next, o.Tag+s, out, o.Chunk)
			buf := c.RecvChunked(prev, o.Tag+s, o.Chunk)
			st.RecvWords += len(buf)
			idx = (idx - 1 + b) % b
			decodeBundleInto(incoming, buf)
			if cdc != nil {
				for i := range incoming {
					incoming[i] = cdc.Dec(member(idx, i), incoming[i])
				}
			}
			stepDone()
		}
		tr.End()
	}
	// This rank's column, bundle (col+1) mod b, is reduced once merged
	// with the last arrival: each set is the phase-2 wire set of its
	// member, or this rank's own.
	wire := c.Lists(a)
	for i, in := range incoming {
		if m := member(idx, i); i == row {
			own = write(own[:0], m, in, false)
		} else {
			wire[i] = write(make([]uint32, 0, bound(m, in)), m, in, true)
		}
	}

	// Phase 2: point-to-point distribution down my grid column. The
	// async schedule posts every send before any wait so the column's
	// transfers fly concurrently (phase 1's ring is serially dependent —
	// each step forwards what the previous one merged — and stays
	// synchronous either way).
	tr.Begin("phase", "phase2")
	acc := newUnion(c, own, a-1)
	tag2 := o.Tag + 1<<20
	for i := range a {
		if i != row {
			isend(c, o, g.World(i*b+col), tag2+row, wire[i])
		}
	}
	reqs := c.Requests(a)
	for i := range a {
		if i != row {
			reqs[i] = irecv(c, o, g.World(i*b+col), tag2+i)
		}
	}
	for i := range a {
		if i == row {
			continue
		}
		part := reqs[i].Wait()
		st.RecvWords += len(part)
		if cdc != nil {
			part = cdc.Dec(g.Me, part)
		}
		if o.NoUnion {
			// part may be a multiset; dedup on receipt. These
			// duplicates crossed the wire — the waste the union-fold
			// avoids.
			part, _ = localindex.SortSet(append([]uint32(nil), part...))
		}
		acc.add(part)
	}
	res := acc.done()
	if o.NoUnion {
		res, _ = localindex.SortSet(res)
	}
	st.Dups += acc.dups
	c.ReleaseRequests(reqs)
	c.ReleaseLists(wire)
	c.ReleaseLists(incoming)
	c.ReleaseWords(own)
	c.ReleaseWords(scratch)
	c.ReleaseWords(lens)
	tr.End()
	end(tr, &st)
	return res, st
}

// mergeHeld appends to dst the merge of member m's set, n ids, with in,
// the matching set of a bundle that arrived, and returns it with the
// duplicates absorbed. The set is written straight into dst's spare
// capacity len(in) past its end, where the merge reads it ahead of what
// it writes (localindex.UnionInto), so it is never copied; with no set
// arrived it is simply appended.
func mergeHeld(dst []uint32, sets Sets, m, n int, in []uint32, merge func(dst, a, b []uint32) ([]uint32, int)) ([]uint32, int) {
	if len(in) == 0 {
		return sets.Append(slices.Grow(dst, n), m), 0
	}
	k := len(dst) + len(in)
	dst = slices.Grow(dst, n+len(in))
	return merge(dst, sets.Append(dst[k:k], m), in)
}

// appendKeepDups appends the merge of two ascending slices to dst,
// duplicates kept — the no-union baseline's in-transit "reduction" — and
// reports none absorbed.
func appendKeepDups(dst, a, b []uint32) ([]uint32, int) {
	dst = slices.Grow(dst, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...), 0
}

// TwoPhaseExpand is Gather's "twophase" arm on precomputed data with no
// handle, the form the perf lab's collective.twophase_expand_us probe
// calls.
func TwoPhaseExpand(c *comm.Comm, g comm.Group, o Opts, data []uint32) ([][]uint32, Stats) {
	return Gather(c, g, o, "twophase", data, nil)
}

// twoPhaseExpand is the paper's optimized expand (Figure 3): every
// group member's data, out[g.Me], reaches every other member in two
// phases on the a x b grid. Phase 1: members of each grid column
// exchange their data directly. Phase 2: each member circulates its
// phase-1 collection (one bundle of a sets) along its grid-row ring, so
// after b-1 steps everyone holds all a*b contributions. Each part is
// readied while a later transfer is in flight: my own under phase 1,
// each phase-1 piece under the wait for the next, the last one under
// phase 2's first hop, and each bundle under the forward of the next.
func twoPhaseExpand(c *comm.Comm, g comm.Group, o Opts, out [][]uint32, ready func(m int)) Stats {
	size := g.Size()
	var st Stats
	if size == 1 {
		ready(g.Me)
		return st
	}
	tr := begin(c, "twophase-expand")
	a, b := FactorGrid(size) // a >= b, so a > 1 here
	row, col := g.Me/b, g.Me%b

	// Phase 1: exchange within my grid column (stride-b members), all
	// sends posted before any receive.
	colSets := make([][]uint32, a)
	colSets[row] = out[g.Me]
	for i := 0; i < a; i++ {
		if i != row {
			isend(c, o, g.World(i*b+col), o.Tag+row, colSets[row])
		}
	}
	reqs := c.Requests(a)
	for i := 0; i < a; i++ {
		if i != row {
			reqs[i] = irecv(c, o, g.World(i*b+col), o.Tag+i)
		}
	}
	ready(g.Me)
	pend := -1 // the phase-1 piece waiting to be readied
	for i := 0; i < a; i++ {
		if i == row {
			continue
		}
		if pend >= 0 {
			ready(pend*b + col)
		}
		colSets[i] = reqs[i].Wait()
		st.RecvWords += len(colSets[i])
		out[i*b+col] = colSets[i]
		pend = i
	}
	c.ReleaseRequests(reqs)
	if b == 1 {
		ready(pend*b + col)
		end(tr, &st)
		return st
	}

	// Phase 2: circulate bundles along my grid-row ring. The bundle I
	// forward at step s originated at grid column (col-s); receivers
	// attribute sets to the originating column. Each received bundle is
	// forwarded verbatim on the next hop (a bundle's content never
	// changes while it circulates, so the framing — plain or, with
	// o.BundleMerge set, the cheaper merged recompression — is chosen
	// once, at its first hop: see bundleForWire).
	next := g.World(row*b + (col+1)%b)
	prev := g.World(row*b + (col-1+b)%b)
	tag2 := o.Tag + 1<<20
	wire := bundleForWire(o, g, col, colSets)
	pendCol := -1 // the grid column whose bundle waits to be readied
	for s := 0; s < b-1; s++ {
		isend(c, o, next, tag2+s, wire)
		req := irecv(c, o, prev, tag2+s)
		if pendCol < 0 {
			ready(pend*b + col)
		} else {
			for i := 0; i < a; i++ {
				ready(i*b + pendCol)
			}
		}
		wire = req.Wait()
		st.RecvWords += len(wire)
		pendCol = (col - s - 1 + b) % b
		bundle := bundleFromWire(o, g, pendCol, wire, a)
		for i := 0; i < a; i++ {
			out[i*b+pendCol] = bundle[i]
		}
	}
	for i := 0; i < a; i++ {
		ready(i*b + pendCol)
	}
	end(tr, &st)
	return st
}

// mergedBundleMarker leads a recompressed phase-2 bundle. A plain
// framed bundle starts with its first set's length, which can never be
// the maximum uint32, so the two wire forms are self-describing.
const mergedBundleMarker = ^uint32(0)

// bundleOrigins returns the group member indices contributing to the
// phase-2 bundle that originated at grid column srcCol, in bundle
// order.
func bundleOrigins(g comm.Group, srcCol int, a int) []int {
	_, b := FactorGrid(g.Size())
	origins := make([]int, a)
	for i := range origins {
		origins[i] = i*b + srcCol
	}
	return origins
}

// bundleForWire frames a phase-2 bundle for one ring hop: the plain
// (length, payload) framing, or — when o.BundleMerge is set and wins —
// the merged recompression behind mergedBundleMarker. Never more words
// than the plain framing.
func bundleForWire(o Opts, g comm.Group, srcCol int, sets [][]uint32) []uint32 {
	plain := encodeBundle(sets)
	if o.BundleMerge == nil {
		return plain
	}
	merged := o.BundleMerge.Merge(bundleOrigins(g, srcCol, len(sets)), sets)
	if 1+len(merged) >= len(plain) {
		return plain
	}
	out := make([]uint32, 0, 1+len(merged))
	return append(append(out, mergedBundleMarker), merged...)
}

// bundleFromWire inverts bundleForWire.
func bundleFromWire(o Opts, g comm.Group, srcCol int, buf []uint32, a int) [][]uint32 {
	if o.BundleMerge != nil && len(buf) > 0 && buf[0] == mergedBundleMarker {
		return o.BundleMerge.Split(bundleOrigins(g, srcCol, a), buf[1:])
	}
	return decodeBundle(buf, a)
}
