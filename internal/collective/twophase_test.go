package collective

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/localindex"
)

// TestTwoPhaseFoldMatchesReference holds the two-phase fold, which
// writes every set straight where it is read next, to refTwoPhaseFold, a
// copy of the fold that staged each set and copied it onto the wire: the
// same result — the union of the sets destined to the rank — Dups,
// RecvWords and simulated clock on every rank, for group sizes 1 to 9,
// 12 and 16 (one-column grids, 2 x 2, 3 x 2, 4 x 2, 4 x 3 and the 3 x 3
// and 4 x 4 grids whose middle hops merge into a bundle), sparse and dense
// sets, with no codec and under three wire modes, with and without the
// in-flight union, both schedules, whole and chunked messages. Making a
// set charges a fixed compute, so a set made at another moment moves the
// clock.
func TestTwoPhaseFoldMatchesReference(t *testing.T) {
	const span = 96
	for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16} {
		for _, density := range []int{8, 70} {
			all := ownerSets(p, span, density, int64(p*100+density))
			for _, mode := range []string{"plain", "auto", "hybrid", "dense", "nounion"} {
				for _, async := range []bool{false, true} {
					for _, chunk := range []int{0, 16} {
						o := Opts{Tag: 3, Chunk: chunk, Async: async}
						switch mode {
						case "auto":
							o.Codec = ownerCodec(span, frontier.WireAuto)
						case "hybrid":
							o.Codec = ownerCodec(span, frontier.WireHybrid)
						case "dense":
							o.Codec = ownerCodec(span, frontier.WireDense)
						case "nounion":
							o.NoUnion = true
						}
						name := fmt.Sprintf("p%d/%d%%/%s/async=%v/chunk=%d", p, density, mode, async, chunk)
						got, gotClock := runFold(t, p, all, func(c *comm.Comm, g comm.Group, prep Prep) ([]uint32, Stats) {
							return twoPhaseFold(c, g, o, prepSets{prep, make([][]uint32, p)})
						})
						want, wantClock := runFold(t, p, all, func(c *comm.Comm, g comm.Group, prep Prep) ([]uint32, Stats) {
							return refTwoPhaseFold(c, g, o, prep)
						})
						for r := range p {
							if !slices.Equal(got[r].acc, want[r].acc) || got[r].st != want[r].st {
								t.Fatalf("%s rank %d: %d ids, %+v; reference %d ids, %+v", name, r, len(got[r].acc), got[r].st, len(want[r].acc), want[r].st)
							}
							if mode != "nounion" && !slices.Equal(got[r].acc, refUnionTo(all, r)) {
								t.Fatalf("%s rank %d: not the union of the sets destined to it", name, r)
							}
							if gotClock[r] != wantClock[r] {
								t.Fatalf("%s rank %d: clock %g, reference %g", name, r, gotClock[r], wantClock[r])
							}
						}
					}
				}
			}
		}
	}
}

// ownerSets builds per-rank sets, the one destined to member d drawn
// from d's universe [d*span, (d+1)*span) at about density percent.
func ownerSets(p, span, density int, seed int64) [][][]uint32 {
	rng := rand.New(rand.NewSource(seed))
	all := make([][][]uint32, p)
	for r := range all {
		all[r] = make([][]uint32, p)
		for d := range all[r] {
			for v := range span {
				if rng.Intn(100) < density {
					all[r][d] = append(all[r][d], uint32(d*span+v))
				}
			}
		}
	}
	return all
}

// runFold runs fold on every rank of a p-rank world, with a prep that
// charges a fixed compute per set, and returns each rank's result and
// clock.
func runFold(t *testing.T, p int, all [][][]uint32, fold func(c *comm.Comm, g comm.Group, prep Prep) ([]uint32, Stats)) ([]foldOut, []float64) {
	t.Helper()
	w, err := comm.NewWorld(comm.Config{P: p})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]foldOut, p)
	comms, err := w.Run(func(c *comm.Comm) {
		g := worldGroup(c)
		acc, st := fold(c, g, func(m int) []uint32 {
			c.Compute(prepCompute)
			return all[g.Me][m]
		})
		out[c.Rank()] = foldOut{acc, st}
	})
	if err != nil {
		t.Fatal(err)
	}
	clocks := make([]float64, p)
	for r, c := range comms {
		clocks[r] = c.Clock()
	}
	return out, clocks
}

// refTwoPhaseFold is the two-phase fold as it was before its sets went
// straight to the wire: every set prepared up front into a table, each
// hop's sets encoded one by one and copied into the bundle, the
// in-flight unions merged into fresh memory, and each phase-2 set copied
// or encoded onto the wire.
func refTwoPhaseFold(c *comm.Comm, g comm.Group, o Opts, prep Prep) ([]uint32, Stats) {
	size := g.Size()
	var st Stats
	if size == 1 {
		return append([]uint32(nil), prep(0)...), st
	}
	a, b := FactorGrid(size)
	row, col := g.Me/b, g.Me%b
	sets := make([][]uint32, size)
	chunk := func(idx int) [][]uint32 { return sets[idx*a : (idx+1)*a] }
	for m := 0; m < size; m++ {
		sets[(m%b+1)%b*a+m/b] = prep(m)
	}
	cdc := o.Codec
	if o.NoUnion {
		cdc = nil
	}
	wireSet := func(m int, set []uint32) []uint32 {
		if cdc != nil {
			return cdc.Enc(nil, m, set)
		}
		return append(make([]uint32, 0, len(set)), set...)
	}
	if b > 1 {
		next := g.World(row*b + (col+1)%b)
		prev := g.World(row*b + (col-1+b)%b)
		for s := 0; s < b-1; s++ {
			sendIdx := (col - s + b) % b
			recvIdx := (col - s - 1 + b) % b
			outgoing := make([][]uint32, a)
			for i, set := range chunk(sendIdx) {
				outgoing[i] = set
				if cdc != nil {
					outgoing[i] = cdc.Enc(nil, i*b+(sendIdx-1+b)%b, set)
				}
			}
			c.SendChunked(next, o.Tag+s, encodeBundle(outgoing), o.Chunk)
			buf := c.RecvChunked(prev, o.Tag+s, o.Chunk)
			st.RecvWords += len(buf)
			incoming := decodeBundle(buf, a)
			mine := chunk(recvIdx)
			for i := 0; i < a; i++ {
				if cdc != nil {
					incoming[i] = cdc.Dec(i*b+(recvIdx-1+b)%b, incoming[i])
				}
				if o.NoUnion {
					mine[i] = append(slices.Clone(mine[i]), incoming[i]...)
					slices.Sort(mine[i])
					continue
				}
				var d int
				mine[i], d = localindex.UnionSorted(mine[i], incoming[i])
				st.Dups += d
			}
		}
	}
	mine := chunk((col + 1) % b)
	acc := mine[row]
	tag2 := o.Tag + 1<<20
	for i := 0; i < a; i++ {
		if i != row {
			isend(c, o, g.World(i*b+col), tag2+row, wireSet(i*b+col, mine[i]))
		}
	}
	reqs := make([]comm.Request, a)
	for i := 0; i < a; i++ {
		if i != row {
			reqs[i] = irecv(c, o, g.World(i*b+col), tag2+i)
		}
	}
	for i := 0; i < a; i++ {
		if i == row {
			continue
		}
		part := reqs[i].Wait()
		st.RecvWords += len(part)
		if cdc != nil {
			part = cdc.Dec(g.Me, part)
		}
		if o.NoUnion {
			part, _ = localindex.SortSet(append([]uint32(nil), part...))
		}
		var d int
		acc, d = localindex.UnionSorted(acc, part)
		st.Dups += d
	}
	if o.NoUnion {
		acc, _ = localindex.SortSet(append([]uint32(nil), acc...))
	}
	return acc, st
}
