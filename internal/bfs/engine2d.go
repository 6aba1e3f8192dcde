package bfs

import (
	"math/bits"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/search"
	"repro/internal/torus"
	"repro/internal/trace"
)

// engine2D holds one rank's state for Algorithm 2. The same level
// machinery serves the uni-directional search, both sides of the
// bi-directional search and a multi-source batch, on every mesh: when
// the processor column has one member (R = 1, the conventional 1D
// partitioning of §2.1) its column phase is the identity — the rank's
// own frontier is F̄, its block column is its owned block — and a level
// is Algorithm 1's: scan, fold, mark, charged for nothing else.
type engine2D struct {
	c     *comm.Comm
	st    *partition.Store2D
	opts  Options
	model torus.CostModel
	colG  comm.Group // expand group: my processor-column, R members
	rowG  comm.Group // fold group: my processor-row, C members
	// pl is the per-rank worker pool the scans and the bottom-up claims
	// run on; see parallel.go for the determinism contract.
	pl      *pool.Pool
	sources []graph.Vertex // a batch's, lane i from sources[i]; nil for one source

	// hist tallies the wire codec's container choices; per-level deltas
	// land in rankLevel.Containers.
	hist frontier.ContainerHist
	// deg caches the global out-degree of every owned vertex, built on
	// first use by a processor-column exchange (2D partial edge lists
	// mean no single rank holds a vertex's full degree; with R = 1 the
	// rank does, and reads them from Off). Only the direction-optimizing
	// policy consults it.
	deg []uint32
	// probes counts this run's hash probes (a restore seeds it with the
	// checkpointed run's); the stores themselves are read-only.
	probes uint64
	// The scratch of the run's steps: one source's union fold (see
	// combine.go), targeted expand and two-phase bundle recompression;
	// or a batch's lane fold, whose scans OR their masks into its rows,
	// and its expand. A column expand is nil on a one-member column.
	bins    *setBins
	col     *search.Column[struct{}]
	bundle  *collective.BundleCodec
	lanes   *search.Fold[uint64]
	laneCol *search.Column[uint64]
	// row is a bottom-up level's gathered frontier by local row (see
	// rowBits).
	row []uint32
}

// newEngine2D builds rank c's engine with the scratch its run uses: a
// batch's levels when sources is non-nil, otherwise one source's.
func newEngine2D(c *comm.Comm, st *partition.Store2D, l partition.View, opts Options, sources []graph.Vertex) *engine2D {
	mesh := comm.Mesh{R: l.R, C: l.C}
	c.SetCores(opts.Cores)
	e := &engine2D{
		c:       c,
		st:      st,
		opts:    opts,
		model:   c.Model(),
		colG:    mesh.ColGroup(c.Rank()),
		rowG:    mesh.RowGroup(c.Rank()),
		pl:      pool.New(opts.Workers),
		sources: sources,
	}
	column := e.colG.Size() > 1
	if sources != nil {
		e.lanes = search.NewFold[uint64](c, e.rowG, &e.opts.Common, st, lanePayload{len(sources), opts.Wire, &e.hist})
		if column {
			e.laneCol = search.NewColumn[uint64](c, e.colG, &e.opts.Common, st, e.lanes)
		}
		return e
	}
	e.bins = newSetBins(c, e.rowG, st, &e.opts, &e.hist)
	switch {
	case column && opts.Expand == ExpandTargeted:
		// Sparse parts are raw id lists, which the column writes itself.
		var w search.Wire[struct{}]
		if opts.Wire != frontier.WireSparse {
			w = expandWire{e}
		}
		e.col = search.NewColumn[struct{}](c, e.colG, &e.opts.Common, st, w)
	case opts.Expand == ExpandTwoPhase:
		e.bundle = e.expandBundleMerge()
	}
	return e
}

// sideState is one search's level state: a single source's, a side of
// the bi-directional search (which runs two), or a batch's, whose lanes
// ride as a per-vertex mask.
type sideState struct {
	// L holds the levels of owned vertices, Unreached if unlabeled; a
	// batch's nearest-source levels, stamped when the first lanes arrive.
	L []int32
	// F holds the owned vertices labeled in the current level; spare is
	// the storage the next level's frontier is built in (see advance).
	F, spare *frontier.Adaptive
	// sent is the sent-neighbors cache (§2.4.3), bit RowIdx of each row
	// vertex already folded to its owner, and seen the row bits the
	// current top-down level's scan has reached (see setBins.Len): one
	// allocation, both nil without the cache.
	sent, seen []uint64
	level      int32
	// un is a bottom-up level's unlabeled set, current at level unAt
	// once the last frontier is cleared (see unlabeledBits).
	un   []uint32
	unAt int32
	// batch holds a batch's lanes, nil for one source.
	batch *laneState
}

// laneState is a batch's side: its sideState and its lanes. reached[li]
// holds the lanes that have labeled owned vertex li; fmask[li] those that
// newly labeled it last level (nonzero exactly on F's members), spare the
// next level's; levels[i] is lane i's level array. tiles lists the
// 64-vertex tiles (li>>6) a level's mark touched, in order.
type laneState struct {
	sideState
	reached, fmask, spare []uint64
	levels                [][]int32
	tiles                 []uint32
}

// initSide makes s a side over the owned range [lo, lo+n) with nothing
// labeled and returns it. L is where it labels: the rank's block of the
// Result's Levels, or nil for a private array (a bi-directional run's
// target side).
func initSide(s *sideState, lo graph.Vertex, n int, L []int32) *sideState {
	if L == nil {
		L = make([]int32, n)
	}
	s.L, s.F, s.spare = unlabeled(L), frontier.New(uint32(lo), n), frontier.New(uint32(lo), n)
	return s
}

// unlabeled sets every level of L to Unreached and returns it.
func unlabeled(L []int32) []int32 {
	for i := range L {
		L[i] = graph.Unreached
	}
	return L
}

// nextFrontier returns the emptied spare frontier for a level to fill;
// advance installs it.
func (s *sideState) nextFrontier() *frontier.Adaptive {
	s.spare.Reset()
	return s.spare
}

// advance installs the frontier (and a batch's lane masks) the level
// built as the current ones, empties the spare masks for the next, and
// moves to the next level.
func (s *sideState) advance() {
	s.F, s.spare = s.spare, s.F
	if b := s.batch; b != nil {
		b.fmask, b.spare = b.spare, b.fmask
		clear(b.spare)
	}
	s.level++
}

// mark applies a level's delivery — owned vertices vs, ascending, lo the
// first owned id, with a batch's lane masks ms (nil for one source) — to
// the side: a vertex is new to the lanes that have not reached it (one
// source: it is unlabeled), which label it level+1 and carry it into the
// next frontier, and the level advances. A batch's lane levels are
// written a tile at a time once the deliveries are in (writeTiles). It
// reports whether the target was among the newly labeled.
func (s *sideState) mark(opts Options, lo graph.Vertex, vs []uint32, ms []uint64, rec *rankLevel) (foundTarget bool) {
	next, b := s.nextFrontier(), s.batch
	for i, gu := range vs {
		li := gu - uint32(lo)
		if ms != nil {
			nw := ms[i] &^ b.reached[li]
			if nw == 0 {
				continue
			}
			b.reached[li] |= nw
			b.spare[li] = nw
			if k := len(b.tiles); k == 0 || b.tiles[k-1] != li>>6 {
				b.tiles = append(b.tiles, li>>6)
			}
			rec.marked += bits.OnesCount64(nw)
		} else if s.L[li] == graph.Unreached {
			rec.marked++
		} else {
			continue
		}
		if s.L[li] == graph.Unreached {
			s.L[li] = s.level + 1
		}
		next.Add(gu)
		if opts.HasTarget && graph.Vertex(gu) == opts.Target {
			foundTarget = true
		}
	}
	if b != nil {
		b.writeTiles(s.level + 1)
	}
	s.advance()
	return foundTarget
}

// writeTiles labels level in the lane arrays, tile by touched tile, and
// empties the tile list: the tile's 64 spare masks transposed, lane l's
// word holds the tile's vertices l newly reached, and l's row of the
// tile is written in order from it.
func (b *laneState) writeTiles(level int32) {
	var tile [64]uint64
	for _, t := range b.tiles {
		base := int(t) * 64
		clear(tile[copy(tile[:], b.spare[base:]):]) // the last tile may be partial
		transpose64(&tile)
		for lane, lv := range b.levels {
			for w, row := tile[lane], lv[base:]; w != 0; w &= w - 1 {
				row[bits.TrailingZeros64(w)] = level
			}
		}
	}
	b.tiles = b.tiles[:0]
}

func (e *engine2D) newSide(src graph.Vertex, L []int32) *sideState {
	s := initSide(new(sideState), e.st.Lo, e.st.OwnedCount(), L)
	if src >= e.st.Lo && src < e.st.Hi {
		s.L[e.st.LocalOf(src)] = 0
		s.F.Add(uint32(src))
	}
	if e.opts.SentCache {
		w := e.st.RowCount / 64
		words := make([]uint64, 2*w)
		s.sent, s.seen = words[:w:w], words[w:]
	}
	return s
}

// newLaneSide returns the side of the engine's batch, labeling this
// rank's owned blocks of res in place: each lane's source at level 0,
// and its frontier mask.
func (e *engine2D) newLaneSide(res *MultiResult) *sideState {
	l, rank, n := e.st.View(), e.c.Rank(), e.st.OwnedCount()
	masks := make([]uint64, 3*n)
	b := &laneState{reached: masks[:n:n], fmask: masks[n : 2*n : 2*n], spare: masks[2*n:],
		levels: make([][]int32, len(res.LaneLevels)), tiles: make([]uint32, 0, (n+63)/64)}
	s := initSide(&b.sideState, e.st.Lo, n, search.Owned(l, rank, res.Levels))
	s.batch = b
	for lane, all := range res.LaneLevels {
		b.levels[lane] = unlabeled(search.Owned(l, rank, all))
	}
	for lane, src := range e.sources {
		if src < e.st.Lo || src >= e.st.Hi {
			continue
		}
		li := e.st.LocalOf(src)
		b.levels[lane][li], s.L[li] = 0, 0
		b.reached[li] |= 1 << uint(lane)
		b.fmask[li] |= 1 << uint(lane)
		s.F.Add(uint32(src))
	}
	return s
}

// wireFrontier encodes the whole frontier as an expand payload, using
// the word-level repack when the frontier is already dense.
func (e *engine2D) wireFrontier(f *frontier.Adaptive) []uint32 {
	if e.opts.Wire == frontier.WireSparse {
		// The legacy vertex-list format, free of overhead, as a copy: the
		// transport owns what it is handed.
		ids := f.Vertices()
		return append(make([]uint32, 0, len(ids)), ids...)
	}
	tr := e.c.Tracer()
	tr.Begin("engine", "encode")
	out := frontier.EncodeFrontier(f, e.opts.Wire, &e.hist)
	tr.End(trace.Arg{Key: "words", Val: int64(len(out))})
	return out
}

// expandWire is the wire form of single-source expand parts (a
// search.Wire) under a codec: Encode encodes a subset of this rank's
// owned frontier, the universe [lo, lo+n), in the configured mode, into
// memory of its own. Under WireSparse the column writes its parts as raw
// id lists itself and only Decode is used.
type expandWire struct{ e *engine2D }

func (w expandWire) Encode(ids []uint32, _ []struct{}, lo uint32, n int) []uint32 {
	tr := w.e.c.Tracer()
	tr.Begin("engine", "encode")
	out := frontier.EncodeSetStats(ids, lo, n, w.e.opts.Wire, &w.e.hist)
	tr.End(trace.Arg{Key: "words", Val: int64(len(out))})
	return out
}

// Decode leaves WireSparse parts alone: they are raw id lists that never
// saw the sentinel guard, so they must not go through frontier.Decode.
func (w expandWire) Decode(part []uint32) ([]uint32, []struct{}) {
	if w.e.opts.Wire != frontier.WireSparse {
		part = frontier.Decode(part)
	}
	return part, nil
}

// expandBundleMerge recompresses a two-phase expand bundle — the
// processor column's per-origin frontier payloads, which circulate
// together along every grid-row hop — as one set over the column's
// stacked owned ranges, re-encoded through the configured wire codec.
// The two-phase expand ships whichever of this and the plain framing is
// fewer words, so configuring it never costs a word; it wins whenever
// the per-origin headers and framing dominate (dense or hybrid
// payloads, and the a-1 length words of sparse bundles).
func (e *engine2D) expandBundleMerge() *collective.BundleCodec {
	l := e.st.Layout
	return &collective.BundleCodec{
		Merge: func(origins []int, payloads [][]uint32) []uint32 {
			var stacked []uint32
			off := uint32(0)
			for j, m := range origins {
				lo, hi := l.OwnedRange(e.colG.World(m))
				for _, id := range frontier.Decode(payloads[j]) {
					stacked = append(stacked, id-uint32(lo)+off)
				}
				off += uint32(hi - lo)
			}
			return frontier.EncodeSet(stacked, 0, int(off), e.opts.Wire)
		},
		Split: func(origins []int, merged []uint32) [][]uint32 {
			out := make([][]uint32, len(origins))
			ids := frontier.Decode(merged)
			off := uint32(0)
			idx := 0
			for j, m := range origins {
				lo, hi := l.OwnedRange(e.colG.World(m))
				n := uint32(hi - lo)
				for idx < len(ids) && ids[idx] < off+n {
					out[j] = append(out[j], ids[idx]-off+uint32(lo))
					idx++
				}
				off += n
			}
			return out
		},
	}
}

// foldCodec builds the wire codec for fold payloads: a set destined to
// row-group member m is a subset of that member's owned range, so it
// can travel as a bitmap — or hybrid chunk containers — over that
// range when denser is cheaper.
func foldCodec(tr *trace.Tracer, wire frontier.WireMode, g comm.Group, l partition.View, h *frontier.ContainerHist) *collective.Codec {
	if wire == frontier.WireSparse {
		return nil
	}
	return &collective.Codec{
		Enc: func(dst []uint32, m int, set []uint32) []uint32 {
			tr.Begin("engine", "encode")
			lo, hi := l.OwnedRange(g.World(m))
			k := len(dst)
			dst = frontier.AppendEncodeSet(dst, set, uint32(lo), int(hi-lo), wire, h)
			tr.End(trace.Arg{Key: "words", Val: int64(len(dst) - k)})
			return dst
		},
		Bound: func(m, n int) int {
			lo, hi := l.OwnedRange(g.World(m))
			return frontier.EncodeSetBound(wire, int(hi-lo), n)
		},
		Dec: func(m int, buf []uint32) []uint32 {
			tr.Begin("engine", "decode")
			out := frontier.Decode(buf)
			tr.End(trace.Arg{Key: "words", Val: int64(len(buf))})
			return out
		},
	}
}

// degreeExchangeTag namespaces the one-time owned-degree exchange of
// the direction-optimizing heuristic, away from the per-level tag
// spaces (level*64 + offsets).
const degreeExchangeTag = 1 << 27

// ownedOutDegrees returns the global out-degree of every owned vertex.
// A vertex's partial edge lists are spread over its processor column,
// so the first call runs one column all-to-all: each rank sends every
// column-mate the partial degrees of that mate's owned vertices, and
// the owner sums the R contributions.
func (e *engine2D) ownedOutDegrees() []uint32 {
	if e.deg != nil {
		return e.deg
	}
	if e.colG.Size() == 1 {
		// The full edge lists are local: column li is owned vertex li.
		e.deg = make([]uint32, e.st.OwnedCount())
		for li := range e.deg {
			e.deg[li] = uint32(e.st.Off[li+1] - e.st.Off[li])
		}
		return e.deg
	}
	// The members' owned blocks tile the block column in member order:
	// one array over it, cut at the block boundaries, is every send.
	l := e.st.Layout
	all := make([]uint32, len(e.st.ColIdx))
	for ci, v := range e.st.ColIds {
		all[v-e.st.ColBase] = uint32(e.st.Off[ci+1] - e.st.Off[ci])
	}
	send := make([][]uint32, e.colG.Size())
	for i := range send {
		lo := min(i*l.BlockSize(), len(all))
		hi := lo + l.OwnedCount(e.colG.Ranks[i])
		send[i] = all[lo:hi:hi]
	}
	e.c.ChargeItems(len(e.st.ColIds), e.model.VertexCost)
	o := collective.Opts{Tag: degreeExchangeTag, Chunk: e.opts.ChunkWords}
	parts, st := collective.AllToAll(e.c, e.colG, o, send)
	deg := make([]uint32, e.st.OwnedCount())
	for _, p := range parts {
		for j, d := range p {
			deg[j] += d
		}
	}
	e.c.ChargeItems(st.RecvWords, e.model.VertexCost)
	e.deg = deg
	return deg
}

// totalOutDegree returns this rank's owned vertices' degree sum.
func (e *engine2D) totalOutDegree() uint64 {
	var sum uint64
	for _, d := range e.ownedOutDegrees() {
		sum += uint64(d)
	}
	return sum
}

// frontierOutDegree returns the degree sum over s's frontier — the
// edges a top-down expansion of it would scan, globally once reduced.
func (e *engine2D) frontierOutDegree(s *sideState) uint64 {
	deg := e.ownedOutDegrees()
	var sum uint64
	s.F.Iterate(func(gv uint32) {
		sum += uint64(deg[e.st.LocalOf(graph.Vertex(gv))])
	})
	return sum
}

// step runs one complete top-down level for side s: expand, neighbor
// scan, fold, mark. It returns the rank-local statistics and whether
// this rank labeled the target this level. The global frontier
// emptiness check belongs to the caller (it differs between uni- and
// bi-directional drivers). One source's neighbors fold as sets
// (setBins); a batch's carry their lane masks through the OR fold.
func (e *engine2D) step(s *sideState, tagBase int) (rankLevel, bool) {
	tm := beginLevel(e.c, &e.hist)
	rec := rankLevel{frontier: s.F.Len()}
	var nbar []uint32
	var ms []uint64
	if e.lanes == nil {
		e.bins.tally.Reset()
		expand(e, s, &e.bins.tally, e.col, nil, tagBase, &rec)
		nbar = e.bins.fold(s, tagBase+1<<24, &rec)
	} else {
		expand(e, s, e.lanes.Tally(), e.laneCol, s.batch.fmask, tagBase, &rec)
		nbar, ms, rec.dups = e.lanes.Deliver(tagBase+1<<24, &rec.Step)
	}
	foundTarget := s.mark(e.opts, e.st.Lo, nbar, ms, &rec)
	rec.end(tm)
	return rec, foundTarget
}

// expand moves side s's frontier, each vertex with its payload from
// fmask (nil when M carries nothing), to the ranks holding its partial
// edge lists and scans each part, counting into t, as the exchange
// hands it over:
// under the overlapped schedule as it arrives, while the remaining parts
// are on the wire, under the synchronous one in member order once the
// last has arrived. Results are identical — the scans and merges are
// order-insensitive, and the sent-neighbors cache admits each vertex
// exactly once in any order; only the simulated clock, and the OverlapS
// ledger, changes. The schedules are collective's business. With a
// one-member processor column there is no expand: the scan reads the
// owned frontier itself. Only one source reaches the dense expands.
func expand[M any](e *engine2D, s *sideState, t *search.Tally, col *search.Column[M], fmask []M, tagBase int, rec *rankLevel) {
	switch {
	case e.colG.Size() == 1:
		scanPart(e, t, s, s.F.Vertices(), fmask, 0)
	case col != nil:
		words, ids := s.F.Words(), []uint32(nil)
		if words == nil {
			ids = s.F.Vertices()
		}
		rec.ExpandWords = col.Expand(tagBase, words, ids, fmask, func(vs []uint32, xs []M) { scanPart(e, t, s, vs, xs, len(vs)) })
	default:
		// The dense expands (Algorithm 2 steps 7–11 as the ring all-gather
		// or the two-phase expand of §3.2.2) move the whole frontier.
		o := collective.Opts{Tag: tagBase, Chunk: e.opts.ChunkWords, Async: e.opts.Async, BundleMerge: e.bundle}
		_, st := collective.Gather(e.c, e.colG, o, e.opts.Expand.String(), e.wireFrontier(s.F), func(_ int, part []uint32) {
			vs, _ := expandWire{e}.Decode(part)
			scanPart(e, t, s, vs, []struct{}(nil), len(vs))
		})
		rec.ExpandWords = st.RecvWords
	}
	rec.Edges = t.Scanned
	e.probes += t.Probes
}
