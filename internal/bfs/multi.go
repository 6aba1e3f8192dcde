package bfs

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

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

// LaneDistance returns the s→t distance of the lane searching from s
// (Unreached if t was not reached or s is not in the batch).
func (r *MultiResult) LaneDistance(s, t graph.Vertex) int32 {
	if i := r.laneOf(s); i >= 0 {
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
	enc := frontier.EncodeSetStatsPar(p, vs, lo, n, mode, h)
	s := len(vs)
	wInter := s * maskWords(b)
	wPlane := b * frontier.BitWords(s)
	out := make([]uint32, 0, 2+len(enc)+min(wInter, wPlane))
	out = append(out, uint32(len(enc)))
	if wInter <= wPlane {
		out = append(out, laneFormInterleaved)
		out = append(out, enc...)
		for _, m := range ms {
			out = append(out, uint32(m))
			if b > 32 {
				out = append(out, uint32(m>>32))
			}
		}
		return out
	}
	out = append(out, laneFormPlanes)
	out = append(out, enc...)
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
	if len(buf) < 2 {
		panic("bfs: truncated lane payload")
	}
	nw := int(buf[0])
	form := buf[1]
	if 2+nw > len(buf) {
		panic("bfs: truncated lane payload set")
	}
	vs = frontier.AppendDecodePar(p, vs[:0], buf[2:2+nw])
	rest := buf[2+nw:]
	s := len(vs)
	ms = slices.Grow(ms[:0], s)[:s]
	switch form {
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

// multiState is one rank's lane-parallel search state.
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
	// levels[lane][li] is lane's level of owned vertex li.
	levels [][]int32
	sweep  int32
}

// newMultiState seeds the lanes owned by this rank.
func newMultiState(opts Options, sources []graph.Vertex, lo graph.Vertex, n int) *multiState {
	s := &multiState{
		reached: make([]uint64, n),
		fmask:   make([]uint64, n),
		spare:   make([]uint64, n),
		F:       opts.newFrontier(lo, n),
		spareF:  opts.newFrontier(lo, n),
		levels:  make([][]int32, len(sources)),
	}
	for lane := range s.levels {
		lv := make([]int32, n)
		for i := range lv {
			lv[i] = graph.Unreached
		}
		s.levels[lane] = lv
	}
	for lane, src := range sources {
		if src < lo || src >= lo+graph.Vertex(n) {
			continue
		}
		li := uint32(src - lo)
		s.levels[lane][li] = 0
		s.reached[li] |= 1 << uint(lane)
		s.fmask[li] |= 1 << uint(lane)
		s.F.Add(uint32(src))
	}
	return s
}

// mark applies a deduplicated batch of (vertex, mask) arrivals owned
// by this rank: lanes not yet at a vertex label it at sweep+1 and
// re-enter the frontier carrying only the new lanes. It installs the
// next frontier and advances the sweep counter.
func (s *multiState) mark(opts Options, lo graph.Vertex, n int, rvs []uint32, rms []uint64, rec *rankLevel) {
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

// multiStepper is a partitioning engine for lane-parallel sweeps.
type multiStepper interface {
	newMulti(sources []graph.Vertex) *multiState
	sweep(s *multiState, tagBase int) rankLevel
}

// multiDrive runs lane-parallel sweeps until the global lane-OR
// frontier empties (or MaxLevels, or a cooperative cancellation).
func multiDrive(c *comm.Comm, e multiStepper, opts Options, sources []graph.Vertex) ([]rankLevel, *multiState, *search.Canceled) {
	s := e.newMulti(sources)
	red := newReducer(c, opts)
	var recs []rankLevel
	for {
		if cxl := checkCancel(opts, red, c.Clock(), "sweep", int(s.sweep)); cxl != nil {
			return recs, s, cxl
		}
		if red.sum(uint64(s.F.Len())) == 0 {
			return recs, s, nil
		}
		if opts.MaxLevels > 0 && int(s.sweep) >= opts.MaxLevels {
			return recs, s, nil
		}
		recs = append(recs, e.sweep(s, int(s.sweep)*64))
	}
}

// multiEngine2D runs lane-parallel sweeps under the 2D partitioning,
// following the Algorithm 2 shape: targeted column expand of the
// lane-OR frontier (masks alongside), partial-list scan binning
// (neighbor, mask) pairs by owner column, row exchange, per-lane mark.
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
	// fold is the row-exchange half of a sweep and its per-run scratch;
	// sendV/sendM stage the targeted column expand, likewise reused
	// every sweep.
	fold  *laneFold
	sendV [][]uint32
	sendM [][]uint64
}

func newMultiEngine2D(c *comm.Comm, st *partition.Store2D, opts Options) *multiEngine2D {
	l := st.Layout
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
	e.fold = newLaneFold(c, e.rowG, opts, e.pl, &e.hist, l.BlockSize(), l.OwnedRange)
	return e
}

func (e *multiEngine2D) newMulti(sources []graph.Vertex) *multiState {
	return newMultiState(e.opts, sources, e.st.Lo, e.st.OwnedCount())
}

// sweep runs one lane-parallel sweep under either schedule. The
// overlapped one streams lane payloads into the partial-list scan as
// they arrive and posts the row exchange per bin as each finishes its
// OR-merge; payloads, statistics and marks are the same.
func (e *multiEngine2D) sweep(s *multiState, tagBase int) rankLevel {
	tm := newLevelTimer(e.c)
	h0 := e.hist
	rec := rankLevel{dir: TopDown, frontier: s.F.Len()}
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
	binV, binM := e.fold.reset()
	scan := func(i int, part []uint32) {
		avs, ams := sendV[i], sendM[i]
		if i != e.colG.Me {
			avs, ams = e.fold.decode(part, b)
		}
		rec.edges += e.scanLanes(avs, ams, binV, binM)
	}
	o := collective.Opts{Tag: tagBase, Chunk: e.opts.ChunkWords, Async: e.opts.Async}
	rec.expandWords = collective.Exchange(e.c, e.colG, o, prep, scan).RecvWords

	// Lane merge per destination, the row exchange to the owners, and
	// the owner's merge of what arrives.
	rvs, rms := e.fold.deliver(b, tagBase+1<<24, &rec)
	s.mark(e.opts, e.st.Lo, e.st.OwnedCount(), rvs, rms, &rec)
	rec.containers = e.hist.Sub(h0)
	tm.record(&rec)
	return rec
}

// multiEngine1D runs lane-parallel sweeps under the conventional 1D
// partitioning: full edge lists are local, so a sweep is one scan and
// one personalized exchange over all P ranks (the Algorithm 1 fold).
type multiEngine1D struct {
	c     *comm.Comm
	st    *partition.Store1D
	opts  Options
	model torus.CostModel
	world comm.Group
	pl    *pool.Pool
	hist  frontier.ContainerHist
	// fold is the exchange half of a sweep and its per-run scratch.
	fold *laneFold
}

func newMultiEngine1D(c *comm.Comm, st *partition.Store1D, opts Options) *multiEngine1D {
	g := comm.Group{Ranks: make([]int, c.Size()), Me: c.Rank()}
	for i := range g.Ranks {
		g.Ranks[i] = i
	}
	c.SetCores(opts.Cores)
	e := &multiEngine1D{c: c, st: st, opts: opts, model: c.Model(), world: g,
		pl: pool.New(opts.Workers)}
	e.fold = newLaneFold(c, g, opts, e.pl, &e.hist, st.Layout.BlockSize(), st.Layout.OwnedRange)
	return e
}

func (e *multiEngine1D) newMulti(sources []graph.Vertex) *multiState {
	return newMultiState(e.opts, sources, e.st.Lo, e.st.OwnedCount())
}

// sweep runs one lane-parallel sweep under either schedule: the scan is
// local, so the overlapped schedule's win is the pipelined fold —
// per-bin OR-merges interleave with the posts.
func (e *multiEngine1D) sweep(s *multiState, tagBase int) rankLevel {
	tm := newLevelTimer(e.c)
	h0 := e.hist
	rec := rankLevel{dir: TopDown, frontier: s.F.Len()}
	rec.edges = e.scanLanes(s)
	rvs, rms := e.fold.deliver(len(s.levels), tagBase, &rec)
	s.mark(e.opts, e.st.Lo, e.st.OwnedCount(), rvs, rms, &rec)
	rec.containers = e.hist.Sub(h0)
	tm.record(&rec)
	return rec
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

// finishMulti assembles the global per-lane level arrays and the
// nearest-source Levels from the per-rank owned slices.
func finishMulti(res *MultiResult, n int, ranges func(rank int) (graph.Vertex, graph.Vertex), laneLevels [][][]int32) {
	b := res.B
	res.LaneLevels = make([][]int32, b)
	for lane := 0; lane < b; lane++ {
		res.LaneLevels[lane] = make([]int32, n)
	}
	for rank, lanes := range laneLevels {
		lo, hi := ranges(rank)
		for lane := 0; lane < b; lane++ {
			copy(res.LaneLevels[lane][int(lo):int(hi)], lanes[lane])
		}
	}
	res.Levels = make([]int32, n)
	for v := range res.Levels {
		min := graph.Unreached
		for lane := 0; lane < b; lane++ {
			if l := res.LaneLevels[lane][v]; l != graph.Unreached && (min == graph.Unreached || l < min) {
				min = l
			}
		}
		res.Levels[v] = min
	}
}

// MultiRun2D executes a batched multi-source BFS over the 2D edge
// partitioning (or a degenerate 1D mesh). Direction is always
// top-down; the sent-neighbors cache does not apply (a vertex must be
// re-sent when it carries new lanes) and is ignored.
func MultiRun2D(w *comm.World, stores []*partition.Store2D, sources []graph.Vertex, opts Options) (*MultiResult, error) {
	if len(stores) == 0 {
		return nil, fmt.Errorf("bfs: no stores")
	}
	l := stores[0].Layout
	if l.P() != w.P || len(stores) != w.P {
		return nil, fmt.Errorf("bfs: %d stores on layout P=%d for world P=%d", len(stores), l.P(), w.P)
	}
	if err := validateSources(sources, l.N); err != nil {
		return nil, err
	}
	if err := validateRobustness(opts, false); err != nil {
		return nil, err
	}

	res := &MultiResult{B: len(sources), Sources: append([]graph.Vertex(nil), sources...)}
	res.N, res.R, res.C = l.N, l.R, l.C
	perRank := make([][]rankLevel, w.P)
	laneLevels := make([][][]int32, w.P)
	probes := make([]uint64, w.P)
	w.SetTrace(opts.Trace)
	defer w.SetTrace(nil)
	w.SetFault(opts.Fault)
	defer w.SetFault(nil)
	start := time.Now()
	cancels := make([]*search.Canceled, w.P)
	comms, err := w.Run(func(c *comm.Comm) {
		e := newMultiEngine2D(c, stores[c.Rank()], opts)
		recs, s, cxl := multiDrive(c, e, opts, sources)
		perRank[c.Rank()] = recs
		laneLevels[c.Rank()] = s.levels
		probes[c.Rank()] = e.probes
		cancels[c.Rank()] = cxl
	})
	if err != nil {
		return nil, err
	}
	res.Wall = time.Since(start)
	mergeStats(&res.Result, perRank, comms)
	for _, p := range probes {
		res.HashProbes += p
	}
	finishMulti(res, l.N, func(rank int) (graph.Vertex, graph.Vertex) {
		return l.OwnedRange(rank)
	}, laneLevels)
	publishMetrics(opts.Metrics, &res.Result)
	if cxl := search.MergeCanceled(cancels); cxl != nil {
		return res, cxl
	}
	return res, nil
}

// MultiRun1D executes a batched multi-source BFS over the dedicated 1D
// engine.
func MultiRun1D(w *comm.World, stores []*partition.Store1D, sources []graph.Vertex, opts Options) (*MultiResult, error) {
	if len(stores) == 0 {
		return nil, fmt.Errorf("bfs: no stores")
	}
	l := stores[0].Layout
	if l.P != w.P || len(stores) != w.P {
		return nil, fmt.Errorf("bfs: %d stores on layout P=%d for world P=%d", len(stores), l.P, w.P)
	}
	if err := validateSources(sources, l.N); err != nil {
		return nil, err
	}
	if err := validateRobustness(opts, false); err != nil {
		return nil, err
	}

	res := &MultiResult{B: len(sources), Sources: append([]graph.Vertex(nil), sources...)}
	res.N, res.R, res.C = l.N, 1, l.P
	perRank := make([][]rankLevel, w.P)
	laneLevels := make([][][]int32, w.P)
	w.SetTrace(opts.Trace)
	defer w.SetTrace(nil)
	w.SetFault(opts.Fault)
	defer w.SetFault(nil)
	start := time.Now()
	cancels := make([]*search.Canceled, w.P)
	comms, err := w.Run(func(c *comm.Comm) {
		e := newMultiEngine1D(c, stores[c.Rank()], opts)
		recs, s, cxl := multiDrive(c, e, opts, sources)
		perRank[c.Rank()] = recs
		laneLevels[c.Rank()] = s.levels
		cancels[c.Rank()] = cxl
	})
	if err != nil {
		return nil, err
	}
	res.Wall = time.Since(start)
	mergeStats(&res.Result, perRank, comms)
	finishMulti(res, l.N, func(rank int) (graph.Vertex, graph.Vertex) {
		return l.OwnedRange(rank)
	}, laneLevels)
	publishMetrics(opts.Metrics, &res.Result)
	if cxl := search.MergeCanceled(cancels); cxl != nil {
		return res, cxl
	}
	return res, nil
}
