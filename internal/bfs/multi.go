package bfs

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/search"
	"repro/internal/torus"
)

// Batched multi-source BFS: up to MaxLanes sources traverse the graph
// in one level-synchronized sweep sequence, one bit-lane per source
// (the Ligra-style cluster-BFS shape). Every owned vertex carries a
// lane mask of the sources that have reached it; a sweep expands the
// lane-OR frontier — the set of vertices some lane newly reached —
// exactly like a top-down BFS level, except each travelling vertex
// carries its frontier lane mask and owners label per lane.
//
// The vertex sets ride the same wire codecs as single-source payloads
// (the lane-OR frontier is what gets list/bitmap/hybrid-encoded); the
// masks follow in decoded set order, as interleaved words or
// transposed lane planes — whichever is fewer words (see the wire
// format below). Because the b searches share one set payload per hop,
// a batch moves fewer words than b independent runs whose frontiers
// overlap.

// MaxLanes is the lane capacity of one multi-source batch: one bit per
// source in a uint64 lane mask.
const MaxLanes = 64

// MultiResult reports a finished batched multi-source BFS. The
// embedded Result carries the shared machinery's statistics — PerLevel
// is per sweep, and Levels[v] is the distance from the *nearest*
// source (the lane minimum) — while LaneLevels separates the b
// independent per-source level arrays.
type MultiResult struct {
	Result
	// B is the lane count (number of sources in the batch).
	B int
	// Sources records the batch, lane i searching from Sources[i].
	Sources []graph.Vertex
	// LaneLevels[i][v] is source i's BFS level of vertex v (Unreached
	// if lane i never labels it) — identical to an independent BFS from
	// Sources[i].
	LaneLevels [][]int32
}

// laneOf returns the index of source s in the batch, or -1.
func (r *MultiResult) laneOf(s graph.Vertex) int {
	for i, src := range r.Sources {
		if src == s {
			return i
		}
	}
	return -1
}

// LaneDistance returns the s→t distance of the lane searching from s —
// the first such lane when s is in the batch twice — or Unreached if t
// was not reached or is not a vertex, or s is not in the batch.
func (r *MultiResult) LaneDistance(s, t graph.Vertex) int32 {
	if i := r.laneOf(s); i >= 0 && int(t) < len(r.LaneLevels[i]) {
		return r.LaneLevels[i][t]
	}
	return graph.Unreached
}

// Lane payload wire format, the multi-source counterpart of the SSSP
// relax-request format:
//
//	[setWords, maskForm, encodedSet..., masks...]
//
// The vertex set is ascending and duplicate-free (senders OR-merge the
// masks of duplicate vertices first), so it compresses under every
// frontier wire mode; the lane masks follow in decoded set order in
// whichever of two self-described layouts is fewer words for this
// (batch size, set size) pair:
//
//   - interleaved: ceil(b/32) words per member, member-major — cheap
//     when the set is small relative to the lane count;
//   - planes: b transposed bitmaps of ceil(|set|/32) words, bit p of
//     lane l's plane marking member p — cheap for wide sets of narrow
//     batches (b=8 lanes cost 1/4 word per member instead of 1).
//
// An empty batch is a nil payload. The lane count b is engine state
// (every rank knows the source batch), not payload data.
const (
	laneFormInterleaved = iota
	laneFormPlanes
)

// maskWords returns the interleaved per-member mask width for b lanes.
func maskWords(b int) int { return (b + 31) / 32 }

// encodeLanes packs a deduplicated (vertex, mask) batch of a b-lane
// search drawn from the destination's owned universe [lo, lo+n).
func encodeLanes(p *pool.Pool, vs []uint32, ms []uint64, b int, lo uint32, n int, mode frontier.WireMode, h *frontier.ContainerHist) []uint32 {
	if len(vs) == 0 {
		return nil
	}
	s := len(vs)
	wInter := s * maskWords(b)
	wPlane := b * frontier.BitWords(s)
	if wInter <= wPlane {
		out := search.FrameSet(p, vs, lo, n, mode, h, wInter, laneFormInterleaved)
		for _, m := range ms {
			out = append(out, uint32(m))
			if b > 32 {
				out = append(out, uint32(m>>32))
			}
		}
		return out
	}
	out := search.FrameSet(p, vs, lo, n, mode, h, wPlane, laneFormPlanes)
	planes := make([]uint32, wPlane)
	pw := frontier.BitWords(s)
	for p, m := range ms {
		for mm := m; mm != 0; mm &= mm - 1 {
			lane := bits.TrailingZeros64(mm)
			planes[lane*pw+p/32] |= 1 << (p % 32)
		}
	}
	return append(out, planes...)
}

// decodeLanes inverts encodeLanes for a b-lane search. vs and ms are
// staging whose capacity is reused for the decoded batch; neither
// result aliases buf.
func decodeLanes(p *pool.Pool, buf []uint32, b int, vs []uint32, ms []uint64) ([]uint32, []uint64) {
	if len(buf) == 0 {
		return vs[:0], ms[:0]
	}
	vs, form, rest := search.UnframeSet(p, buf, vs, 1)
	s := len(vs)
	ms = slices.Grow(ms[:0], s)[:s]
	switch form[0] {
	case laneFormInterleaved:
		w := maskWords(b)
		if len(rest) != s*w {
			panic("bfs: lane payload set/mask length mismatch")
		}
		for i := range ms {
			ms[i] = uint64(rest[i*w])
			if w > 1 {
				ms[i] |= uint64(rest[i*w+1]) << 32
			}
		}
	case laneFormPlanes:
		pw := frontier.BitWords(s)
		if len(rest) != b*pw {
			panic("bfs: lane payload plane length mismatch")
		}
		clear(ms)
		for lane := 0; lane < b; lane++ {
			plane := rest[lane*pw : (lane+1)*pw]
			frontier.IterateBits(plane, func(p uint32) { ms[p] |= 1 << uint(lane) })
		}
	default:
		panic("bfs: unknown lane mask form")
	}
	return vs, ms
}

// multiState is one rank's lane-parallel search state. Its labels are
// the rank's owned blocks of the MultiResult's arrays, written in place.
type multiState struct {
	// reached[li] holds the lanes that have labeled owned vertex li.
	reached []uint64
	// fmask[li] holds the lanes that newly labeled li last sweep; the
	// nonzero entries are exactly the members of F. spare is the
	// previous sweep's fmask, zeroed and reused as the next one.
	fmask, spare []uint64
	// F is the lane-OR frontier: owned vertices with fmask != 0; spareF
	// is the storage mark builds the next one in.
	F, spareF *frontier.Adaptive
	// levels[lane][li] is lane's level of owned vertex li; nearest[li]
	// is the lane minimum, stamped when the first lanes reach li.
	levels  [][]int32
	nearest []int32
	sweep   int32
}

// newMultiState seeds rank's lane-parallel search over its owned blocks
// of res, which it initializes and from then on labels in place.
func newMultiState(res *MultiResult, l partition.View, rank int) *multiState {
	lo, hi := l.OwnedRange(rank)
	n := int(hi - lo)
	s := &multiState{
		reached: make([]uint64, n),
		fmask:   make([]uint64, n),
		spare:   make([]uint64, n),
		F:       search.NewFrontier(uint32(lo), n),
		spareF:  search.NewFrontier(uint32(lo), n),
		levels:  make([][]int32, res.B),
		nearest: search.Owned(l, rank, res.Levels),
	}
	for i := range s.nearest {
		s.nearest[i] = graph.Unreached
	}
	for lane, all := range res.LaneLevels {
		lv := search.Owned(l, rank, all)
		for i := range lv {
			lv[i] = graph.Unreached
		}
		s.levels[lane] = lv
	}
	for lane, src := range res.Sources {
		if src < lo || src >= hi {
			continue
		}
		li := uint32(src - lo)
		s.levels[lane][li], s.nearest[li] = 0, 0
		s.reached[li] |= 1 << uint(lane)
		s.fmask[li] |= 1 << uint(lane)
		s.F.Add(uint32(src))
	}
	return s
}

// mark applies a deduplicated batch of (vertex, mask) arrivals owned
// by this rank: lanes not yet at a vertex label it at sweep+1 and
// re-enter the frontier carrying only the new lanes; a vertex no lane
// had reached gets its nearest-source level too. It installs the next
// frontier and advances the sweep counter.
func (s *multiState) mark(lo graph.Vertex, rvs []uint32, rms []uint64, rec *rankLevel) {
	next := s.spareF
	next.Reset()
	nextMask := s.spare
	clear(nextMask)
	for i, gu := range rvs {
		li := gu - uint32(lo)
		nw := rms[i] &^ s.reached[li]
		if nw == 0 {
			continue
		}
		if s.reached[li] == 0 {
			s.nearest[li] = s.sweep + 1
		}
		s.reached[li] |= nw
		for m := nw; m != 0; m &= m - 1 {
			s.levels[bits.TrailingZeros64(m)][li] = s.sweep + 1
		}
		rec.marked += bits.OnesCount64(nw)
		nextMask[li] = nw
		next.Add(gu)
	}
	s.F, s.spareF = next, s.F
	s.fmask, s.spare = nextMask, s.fmask
	s.sweep++
}

// multiDrive runs lane-parallel sweeps from s until the global lane-OR
// frontier empties (or MaxLevels, or a cooperative cancellation).
func multiDrive(c *comm.Comm, e *multiEngine2D, opts Options, s *multiState) ([]rankLevel, *search.Canceled) {
	var recs []rankLevel
	for {
		if cxl := opts.Poll(c.AllReduceOr, c.Clock(), "sweep", int(s.sweep)); cxl != nil {
			return recs, cxl
		}
		if c.AllReduceSum(uint64(s.F.Len())) == 0 {
			return recs, nil
		}
		if opts.MaxLevels > 0 && int(s.sweep) >= opts.MaxLevels {
			return recs, nil
		}
		recs = append(recs, e.sweep(s, int(s.sweep)*64))
	}
}

// multiEngine2D runs lane-parallel sweeps on any mesh, following the
// Algorithm 2 shape: targeted column expand of the lane-OR frontier
// (masks alongside), partial-list scan binning (neighbor, mask) pairs by
// owner column, row exchange, per-lane mark. With a one-member processor
// column (R = 1) there is no expand and the sweep is Algorithm 1's: the
// owned frontier's full edge lists, then one exchange over all P ranks.
type multiEngine2D struct {
	c     *comm.Comm
	st    *partition.Store2D
	opts  Options
	model torus.CostModel
	colG  comm.Group
	rowG  comm.Group
	pl    *pool.Pool
	hist  frontier.ContainerHist
	// probes counts this run's hash probes.
	probes uint64
	// fold is the row-exchange half of a sweep and its per-run scratch,
	// its raw bins sized once from the store's FoldEntries — a sweep scans
	// each arrived vertex's partial list at most once, so they never
	// regrow; sendV/sendM stage the targeted column expand, reused every
	// sweep.
	fold  *search.Fold[uint64]
	sendV [][]uint32
	sendM [][]uint64
}

// newMultiEngine2D builds rank c's engine for a batch of b lanes.
func newMultiEngine2D(c *comm.Comm, st *partition.Store2D, l partition.View, opts Options, b int) *multiEngine2D {
	mesh := comm.Mesh{R: l.R, C: l.C}
	c.SetCores(opts.Cores)
	e := &multiEngine2D{
		c:     c,
		st:    st,
		opts:  opts,
		model: c.Model(),
		colG:  mesh.ColGroup(c.Rank()),
		rowG:  mesh.RowGroup(c.Rank()),
		pl:    pool.New(opts.Workers),
		sendV: make([][]uint32, l.R),
		sendM: make([][]uint64, l.R),
	}
	e.fold = search.NewFold[uint64](c, e.rowG, &e.opts.Common, l, lanePayload{e.pl, b, opts.Wire, &e.hist}, st.FoldEntries)
	return e
}

// sweep runs one lane-parallel sweep under either schedule. The
// overlapped one streams lane payloads into the partial-list scan as
// they arrive and posts the row exchange per bin as each finishes its
// OR-merge; payloads, statistics and marks are the same.
func (e *multiEngine2D) sweep(s *multiState, tagBase int) rankLevel {
	tm := beginLevel(e.c, &e.hist)
	rec := rankLevel{dir: TopDown, frontier: s.F.Len()}
	binV, binM := e.fold.Reset()
	if e.colG.Size() == 1 {
		// The column is this rank: scan its own frontier, masks in place.
		rec.Edges = e.scanLanes(s.F.Vertices(), s.fmask, binV, binM)
	} else {
		rec.Edges, rec.ExpandWords = e.expandScan(s, tagBase, binV, binM)
	}

	// Lane merge per destination, the row exchange to the owners, and
	// the owner's merge of what arrives.
	rvs, rms, dups := e.fold.Deliver(tagBase+1<<24, &rec.Step)
	rec.dups = dups
	s.mark(e.st.Lo, rvs, rms, &rec)
	rec.end(tm)
	return rec
}

// expandScan runs a sweep's column phase: the targeted expand of the
// lane-OR frontier, each part scanned into the bins as it arrives. It
// returns the edge entries inspected and the expand words received.
func (e *multiEngine2D) expandScan(s *multiState, tagBase int, binV [][]uint32, binM [][]uint64) (edges, words int) {
	r := e.colG.Size()

	// Targeted column expand: a frontier vertex travels, mask
	// alongside, only to the mesh rows holding a partial list for it.
	sendV, sendM := e.sendV, e.sendM
	for i := range sendV {
		sendV[i], sendM[i] = sendV[i][:0], sendM[i][:0]
	}
	s.F.Iterate(func(gv uint32) {
		li := e.st.LocalOf(graph.Vertex(gv))
		m := s.fmask[li]
		for w, need := range e.st.NeedWords(li) {
			for ; need != 0; need &= need - 1 {
				i := w*64 + bits.TrailingZeros64(need)
				sendV[i] = append(sendV[i], gv)
				sendM[i] = append(sendM[i], m)
			}
		}
	})
	e.c.ChargeItems(s.F.Len()*((r+63)/64), e.model.EdgeCost)
	b := len(s.levels)
	lo, n := e.st.Lo, e.st.OwnedCount()
	prep := func(i int) []uint32 {
		if i == e.colG.Me {
			return nil // stays local; the scan reads sendV/sendM directly
		}
		return encodeLanes(e.pl, sendV[i], sendM[i], b, uint32(lo), n, e.opts.Wire, &e.hist)
	}

	// Scan the partial edge lists of every received frontier vertex and
	// bin the discovered (neighbor, mask) pairs by owner mesh column
	// (scanLanes runs on the worker pool and charges the scan).
	scan := func(i int, part []uint32) {
		avs, ams := sendV[i], sendM[i]
		if i != e.colG.Me {
			avs, ams = e.fold.Decode(part)
		}
		edges += e.scanLanes(avs, ams, binV, binM)
	}
	o := collective.Opts{Tag: tagBase, Chunk: e.opts.ChunkWords, Async: e.opts.Async}
	return edges, collective.Exchange(e.c, e.colG, o, prep, scan).RecvWords
}

// validateSources checks a multi-source batch against the lane
// capacity and the vertex range.
func validateSources(sources []graph.Vertex, n int) error {
	if len(sources) == 0 {
		return fmt.Errorf("bfs: multi-source batch is empty")
	}
	if len(sources) > MaxLanes {
		return fmt.Errorf("bfs: %d sources exceed the %d-lane batch capacity", len(sources), MaxLanes)
	}
	for i, s := range sources {
		if int(s) >= n {
			return fmt.Errorf("bfs: source %d (lane %d) out of range for n=%d", s, i, n)
		}
	}
	return nil
}
