package bfs

import (
	"math/bits"

	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/localindex"
	"repro/internal/partition"
	"repro/internal/pool"
	"repro/internal/search"
	"repro/internal/torus"
	"repro/internal/trace"
)

// engine2D holds one rank's state for Algorithm 2. The same level
// machinery serves the uni-directional search and both sides of the
// bi-directional search, on every mesh: when the processor column has
// one member (R = 1, the conventional 1D partitioning of §2.1) its
// column phase is the identity — the rank's own frontier is F̄, its
// block column is its owned block — and a level is Algorithm 1's:
// scan, fold, mark, charged for nothing else.
type engine2D struct {
	c     *comm.Comm
	st    *partition.Store2D
	opts  Options
	model torus.CostModel
	colG  comm.Group // expand group: my processor-column, R members
	rowG  comm.Group // fold group: my processor-row, C members
	// pl is the per-rank worker pool the hot local loops and the hybrid
	// codec run on; see parallel.go for the determinism contract.
	pl *pool.Pool

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
	// bins is the per-run scratch of the neighbor merge (see combine.go).
	bins *setBins
	// sendV is the targeted expand's per-destination-row staging, kept
	// across levels: what reaches comm is an encoding or a copy (see
	// expandWire), never these lists.
	sendV [][]uint32
	// bundle recompresses the two-phase expand's circulating bundles
	// (see expandBundleMerge); nil under the other expands.
	bundle *collective.BundleCodec
}

func newEngine2D(c *comm.Comm, st *partition.Store2D, l partition.View, opts Options) *engine2D {
	mesh := comm.Mesh{R: l.R, C: l.C}
	c.SetCores(opts.Cores)
	e := &engine2D{
		c:     c,
		st:    st,
		opts:  opts,
		model: c.Model(),
		colG:  mesh.ColGroup(c.Rank()),
		rowG:  mesh.RowGroup(c.Rank()),
		pl:    pool.New(opts.Workers),
		sendV: make([][]uint32, l.R),
	}
	e.bins = newSetBins(c, e.rowG, l, &e.opts, e.pl, &e.hist)
	if opts.Expand == ExpandTwoPhase {
		e.bundle = e.expandBundleMerge()
	}
	return e
}

// sideState is the per-side search state (the bi-directional search
// runs two of these).
type sideState struct {
	L []int32 // levels of owned vertices, Unreached if unlabeled
	// F holds the owned vertices labeled in the current level; spare is
	// the storage the next level's frontier is built in (see advance).
	F, spare *frontier.Adaptive
	sent     *localindex.Bitset
	level    int32
}

// newSideState returns a side over the owned range [lo, lo+n) with
// nothing labeled. L is where it labels: the rank's block of the
// Result's Levels, or nil for a private array (a bi-directional run's
// target side).
func newSideState(lo graph.Vertex, n int, L []int32) *sideState {
	if L == nil {
		L = make([]int32, n)
	}
	for i := range L {
		L[i] = graph.Unreached
	}
	return &sideState{
		L:     L,
		F:     search.NewFrontier(uint32(lo), n),
		spare: search.NewFrontier(uint32(lo), n),
	}
}

// nextFrontier returns the emptied spare frontier for a level to fill;
// advance installs it.
func (s *sideState) nextFrontier() *frontier.Adaptive {
	s.spare.Reset()
	return s.spare
}

// advance makes the frontier nextFrontier handed out the current one
// and moves to the next level.
func (s *sideState) advance() {
	s.F, s.spare = s.spare, s.F
	s.level++
}

// mark applies a level's delivery N̄ — owned vertices, ascending, lo
// the first owned id — to the side: those still unlabeled are labeled
// level+1 and become the next frontier, and the level advances. It
// reports whether the target was among the newly labeled.
func (s *sideState) mark(opts Options, lo graph.Vertex, nbar []uint32, rec *rankLevel) (foundTarget bool) {
	next := s.nextFrontier()
	for _, gu := range nbar {
		li := gu - uint32(lo)
		if s.L[li] == graph.Unreached {
			s.L[li] = s.level + 1
			next.Add(gu)
			rec.marked++
			if opts.HasTarget && graph.Vertex(gu) == opts.Target {
				foundTarget = true
			}
		}
	}
	s.advance()
	return foundTarget
}

func (e *engine2D) newSide(src graph.Vertex, L []int32) *sideState {
	s := newSideState(e.st.Lo, e.st.OwnedCount(), L)
	if src >= e.st.Lo && src < e.st.Hi {
		s.L[e.st.LocalOf(src)] = 0
		s.F.Add(uint32(src))
	}
	if e.opts.SentCache {
		s.sent = localindex.NewBitset(e.st.RowCount)
	}
	return s
}

// expandWire readies an expand payload (a subset of this rank's owned
// frontier) for the wire: its encoding under the configured mode, or
// under WireSparse — the legacy vertex-list format, free of overhead —
// a copy. Either way the transport, which owns what it is handed, never
// gets the caller's list.
func (e *engine2D) expandWire(ids []uint32) []uint32 {
	if e.opts.Wire == frontier.WireSparse {
		return append(make([]uint32, 0, len(ids)), ids...)
	}
	tr := e.c.Tracer()
	tr.Begin("engine", "encode")
	out := frontier.EncodeSetStatsPar(e.pl, ids, uint32(e.st.Lo), e.st.OwnedCount(), e.opts.Wire, &e.hist)
	tr.End(trace.Arg{Key: "words", Val: int64(len(out))})
	return out
}

// wireFrontier encodes the whole frontier as an expand payload, using
// the word-level repack when the representation is already dense.
func (e *engine2D) wireFrontier(f frontier.Frontier) []uint32 {
	if e.opts.Wire == frontier.WireSparse {
		return e.expandWire(f.Vertices())
	}
	tr := e.c.Tracer()
	tr.Begin("engine", "encode")
	out := frontier.EncodeFrontierStatsPar(e.pl, f, e.opts.Wire, &e.hist)
	tr.End(trace.Arg{Key: "words", Val: int64(len(out))})
	return out
}

// expand performs the processor-column expand of Algorithm 2 steps
// 7–11 under the configured schedule, handing every part of F̄, this
// rank's own portion included, to handle, and returns what this rank
// received.
func (e *engine2D) expand(s *sideState, tag int, handle collective.Handle) collective.Stats {
	o := collective.Opts{Tag: tag, Chunk: e.opts.ChunkWords, Async: e.opts.Async, BundleMerge: e.bundle}
	if e.opts.Expand == ExpandTargeted {
		send := e.targetRows(s)
		prep := func(i int) []uint32 {
			if i == e.colG.Me {
				return send[i] // stays local, unencoded
			}
			return e.expandWire(send[i])
		}
		return collective.Exchange(e.c, e.colG, o, prep, handle)
	}
	_, st := collective.Gather(e.c, e.colG, o, e.opts.Expand.String(), e.wireFrontier(s.F), handle)
	return st
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

// targetRows filters the frontier per destination row by the row-need
// masks (only rows holding a non-empty partial list receive v) into
// the engine's staging lists, charges the mask scan, and returns the
// lists, valid until the next call.
func (e *engine2D) targetRows(s *sideState) [][]uint32 {
	r := len(e.sendV)
	for i := range e.sendV {
		e.sendV[i] = e.sendV[i][:0]
	}
	s.F.Iterate(func(gv uint32) {
		for w, need := range e.st.NeedWords(e.st.LocalOf(graph.Vertex(gv))) {
			for ; need != 0; need &= need - 1 {
				i := w*64 + bits.TrailingZeros64(need)
				e.sendV[i] = append(e.sendV[i], gv)
			}
		}
	})
	// Bitmask scan cost: |F| x ceil(R/64) words.
	e.c.ChargeItems(s.F.Len()*((r+63)/64), e.model.EdgeCost)
	return e.sendV
}

// foldCodec builds the wire codec for fold payloads: a set destined to
// row-group member m is a subset of that member's owned range, so it
// can travel as a bitmap — or hybrid chunk containers — over that
// range when denser is cheaper.
func foldCodec(tr *trace.Tracer, p *pool.Pool, wire frontier.WireMode, g comm.Group, l partition.View, h *frontier.ContainerHist) *collective.Codec {
	if wire == frontier.WireSparse {
		return nil
	}
	return &collective.Codec{
		Enc: func(m int, set []uint32) []uint32 {
			tr.Begin("engine", "encode")
			lo, hi := l.OwnedRange(g.World(m))
			out := frontier.EncodeSetStatsPar(p, set, uint32(lo), int(hi-lo), wire, h)
			tr.End(trace.Arg{Key: "words", Val: int64(len(out))})
			return out
		},
		Dec: func(m int, buf []uint32) []uint32 {
			tr.Begin("engine", "decode")
			out := frontier.DecodePar(p, buf)
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
	l := e.st.Layout
	r := e.colG.Size()
	send := make([][]uint32, r)
	for i := 0; i < r; i++ {
		send[i] = make([]uint32, l.OwnedCount(e.colG.Ranks[i]))
	}
	owner := l.OwnerCursor() // columns ascend: one division per owner
	for ci, v := range e.st.ColIds {
		m, li := owner.Locate(v)
		send[m][li] += uint32(e.st.Off[ci+1] - e.st.Off[ci])
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

// step runs one complete top-down BFS level for side s: expand,
// neighbor scan, fold, mark. It returns the rank-local statistics and
// whether this rank labeled the target this level. The global frontier
// emptiness check belongs to the caller (it differs between uni- and
// bi-directional drivers).
//
// Each expand part is scanned as the exchange hands it over: under the
// overlapped schedule as it arrives, while the remaining parts are on
// the wire, under the synchronous one in member order once the last has
// arrived. Results are identical — the scans and unions are
// order-insensitive, and the sent-neighbors cache admits each vertex
// exactly once in any order; only the simulated clock, and the OverlapS
// ledger, changes. The schedules are collective's business. With a
// one-member processor column there is no expand: the scan reads the
// owned frontier itself.
func (e *engine2D) step(s *sideState, tagBase int) (rankLevel, bool) {
	tm := beginLevel(e.c, &e.hist)
	rec := rankLevel{frontier: s.F.Len()}
	if e.colG.Size() == 1 {
		rec.Edges = e.scanPart(s, s.F.Vertices())
	} else {
		rec.ExpandWords = e.expand(s, tagBase, func(m int, part []uint32) {
			// WireSparse parts are raw id lists that never saw the sentinel
			// guard, so they must not go through Decode.
			if e.opts.Wire != frontier.WireSparse {
				part = frontier.DecodePar(e.pl, part) // no-op on raw lists and local parts
			}
			rec.Edges += e.scanPart(s, part)
		}).RecvWords
	}
	foundTarget := s.mark(e.opts, e.st.Lo, e.bins.fold(tagBase+1<<24, &rec), &rec)
	rec.end(tm)
	return rec, foundTarget
}
