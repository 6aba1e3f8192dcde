package search

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/frontier"
)

// The owner's side of the combine step: what arrives for a rank from
// its fold group merges at the rows of its own member, with its own
// set, and is read off them once. These tests hand one owner a batch of
// (id, value) pairs spread over the ranks of a 1 x C mesh — its own bin
// included — and hold what it delivers to the sort-then-compact merges
// refOr and refMin of the whole batch, under both schedules and wire
// codecs.

// combineCases puts each pair (batches[b][i], vals[b][i]) in the bin
// for owner of rank senders[b][i], one case a batch b, on the 1 x c
// mesh over n vertices; the cases share their stores.
func combineCases[V any](t *testing.T, n, c, owner int, batches [][]uint32, senders [][]int, vals [][]V) []foldCase[V] {
	t.Helper()
	stores := emptyStores(t, n, 1, c)
	var cases []foldCase[V]
	for b, ids := range batches {
		fc := foldCase[V]{mesh: comm.Mesh{R: 1, C: c}, stores: stores, bins: make([][][]pair[V], c)}
		for r := range fc.bins {
			fc.bins[r] = make([][]pair[V], c)
		}
		for i, v := range ids {
			r := senders[b][i]
			fc.bins[r][owner] = append(fc.bins[r][owner], pair[V]{v, vals[b][i]})
		}
		cases = append(cases, fc)
	}
	return cases
}

// combineGot delivers the cases in turn on one Fold per rank — so a row
// or value a read failed to reset would surface in a later case — under
// each schedule and wire codec, and returns owner's deliveries with the
// duplicates absorbed on every rank, each sender's own merge included.
// It fails t if the runs disagree or a rank other than owner delivers
// anything.
func combineGot[V comparable](t *testing.T, cases []foldCase[V], owner int, merge rowMerge[V], payload func(frontier.WireMode, *frontier.ContainerHist) Payload[V]) []foldGot[V] {
	t.Helper()
	var first []foldGot[V]
	for _, wire := range []frontier.WireMode{frontier.WireSparse, frontier.WireHybrid} {
		for _, async := range []bool{false, true} {
			got := runFold(t, cases, async, merge, func(h *frontier.ContainerHist) Payload[V] { return payload(wire, h) })
			mine := got[owner]
			for rank := range got {
				for round, g := range got[rank] {
					if rank != owner {
						if len(g.vs) != 0 {
							t.Fatalf("%v/async=%v: rank %d, sent nothing, delivered %v in case %d", wire, async, rank, g.vs, round)
						}
						mine[round].absorbed += g.absorbed
					}
				}
			}
			if first == nil {
				first = mine
				continue
			}
			for round := range first {
				a, b := first[round], mine[round]
				if !slices.Equal(a.vs, b.vs) || !slices.Equal(a.xs, b.xs) || a.absorbed != b.absorbed {
					t.Fatalf("%v/async=%v: case %d delivered %v %v absorbing %d, the first run %v %v absorbing %d",
						wire, async, round, b.vs, b.xs, b.absorbed, a.vs, a.xs, a.absorbed)
				}
			}
		}
	}
	return first
}

// checkCombine runs the batches through both merge forms at owner and
// compares each case's delivery with its reference. The 64-bit masks
// are derived from vals so one input drives both forms.
func checkCombine(t *testing.T, n, c, owner int, batches [][]uint32, senders [][]int, vals [][]uint32) (or, mn func(t *testing.T, b int)) {
	t.Helper()
	masks := make([][]uint64, len(vals))
	for b := range vals {
		for _, v := range vals[b] {
			masks[b] = append(masks[b], uint64(v)<<32|uint64(^v))
		}
	}
	gotOr := combineGot(t, combineCases(t, n, c, owner, batches, senders, masks), owner, orMerge,
		func(w frontier.WireMode, h *frontier.ContainerHist) Payload[uint64] { return orPayload{w, h} })
	gotMin := combineGot(t, combineCases(t, n, c, owner, batches, senders, vals), owner, minMerge,
		func(w frontier.WireMode, h *frontier.ContainerHist) Payload[uint32] { return minPayload{w, h} })
	or = func(t *testing.T, b int) {
		t.Helper()
		wantV, wantM, wantD := refOr(slices.Clone(batches[b]), slices.Clone(masks[b]))
		if g := gotOr[b]; !slices.Equal(g.vs, wantV) || !slices.Equal(g.xs, wantM) || g.absorbed != wantD {
			t.Errorf("or: got %v %x absorbed %d, want %v %x absorbed %d", g.vs, g.xs, g.absorbed, wantV, wantM, wantD)
		}
	}
	mn = func(t *testing.T, b int) {
		t.Helper()
		wantV, wantS, wantD := refMin(slices.Clone(batches[b]), slices.Clone(vals[b]))
		if g := gotMin[b]; !slices.Equal(g.vs, wantV) || !slices.Equal(g.xs, wantS) || g.absorbed != wantD {
			t.Errorf("min: got %v %v absorbed %d, want %v %v absorbed %d", g.vs, g.xs, g.absorbed, wantV, wantS, wantD)
		}
	}
	return or, mn
}

// TestCombineCases: edge batches for the owner of [1000, 1200) on a
// 1 x 6 mesh, each pair sent by a different rank in turn, the owner's
// own bin first: duplicates, the range's ends, its rows' word
// boundaries and extreme values.
func TestCombineCases(t *testing.T) {
	const lo, n, c, owner = 1000, 200, 6, 5
	cases := []struct {
		name      string
		ids, vals []uint32
	}{
		{"empty", nil, nil},
		{"single", []uint32{1042}, []uint32{7}},
		{"all-duplicates", []uint32{1100, 1100, 1100, 1100}, []uint32{9, 3, 3, 12}},
		{"range-edges", []uint32{lo + n - 1, lo, lo + n - 1, lo}, []uint32{5, 6, 4, 8}},
		{"word-boundaries", []uint32{lo + 63, lo + 64, lo + 127, lo + 128, lo + 64}, []uint32{1, 2, 3, 4, 0}},
		{"max-values", []uint32{1001, 1001, 1002}, []uint32{math.MaxUint32, math.MaxUint32, math.MaxUint32}},
		{"zero-values", []uint32{1001, 1001, 1002}, []uint32{0, 0, 0}},
	}
	var batches, vals [][]uint32
	var senders [][]int
	for _, tc := range cases {
		batches, vals = append(batches, tc.ids), append(vals, tc.vals)
		from := make([]int, len(tc.ids))
		for i := range from {
			from[i] = (owner + c - i%c) % c
		}
		senders = append(senders, from)
	}
	or, mn := checkCombine(t, lo+n, c, owner, batches, senders, vals)
	for b, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			or(t, b)
			mn(t, b)
		})
	}
}

// TestCombineRandom: random batches, most of them concentrated so ids
// repeat within a bin and across bins, each pair sent by a random rank,
// for a random owner of a random 1 x C mesh.
func TestCombineRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		c := 1 + rng.Intn(4)
		n := c + rng.Intn(5000)
		owner := rng.Intn(c)
		lo, hi := emptyStores(t, n, 1, c)[0].View().OwnedRange(owner)
		if hi == lo {
			continue
		}
		var batches, vals [][]uint32
		var senders [][]int
		for range 3 {
			// spread < hi-lo concentrates the ids, raising the duplicate rate.
			spread := 1 + rng.Intn(int(hi-lo))
			ids := make([]uint32, rng.Intn(3000))
			vs := make([]uint32, len(ids))
			from := make([]int, len(ids))
			for i := range ids {
				ids[i] = uint32(lo) + uint32(rng.Intn(spread))
				vs[i] = uint32(rng.Intn(64))
				from[i] = rng.Intn(c)
			}
			batches, vals, senders = append(batches, ids), append(vals, vs), append(senders, from)
		}
		or, mn := checkCombine(t, n, c, owner, batches, senders, vals)
		for b := range batches {
			or(t, b)
			mn(t, b)
		}
	}
}

// TestCombineStreamed: one owner's merge over several parts — its own
// set, a part, an empty bin — and, on the same rows, a second step
// whose one pair would not lower a value the first left behind.
func TestCombineStreamed(t *testing.T) {
	// 1 x 3 over 120 vertices: rank 1 owns [40, 80).
	fc := func(bins [][]pair[uint32]) foldCase[uint32] {
		all := make([][][]pair[uint32], 3)
		for r := range all {
			all[r] = make([][]pair[uint32], 3)
			all[r][1] = bins[r]
		}
		return foldCase[uint32]{mesh: comm.Mesh{R: 1, C: 3}, bins: all}
	}
	cases := []foldCase[uint32]{
		fc([][]pair[uint32]{{{42, 8}, {79, 1}}, {{42, 5}, {40, 2}}, nil}),
		fc([][]pair[uint32]{nil, nil, {{42, 9}}}),
	}
	stores := emptyStores(t, 120, 1, 3)
	for i := range cases {
		cases[i].stores = stores
	}
	want := []foldGot[uint32]{{vs: []uint32{40, 42, 79}, xs: []uint32{2, 5, 1}, absorbed: 1}, {vs: []uint32{42}, xs: []uint32{9}}}
	for _, async := range []bool{false, true} {
		got := runFold(t, cases, async, minMerge, func(h *frontier.ContainerHist) Payload[uint32] { return minPayload{frontier.WireSparse, h} })
		for round, w := range want {
			if g := got[1][round]; !slices.Equal(g.vs, w.vs) || !slices.Equal(g.xs, w.xs) || g.absorbed != w.absorbed {
				t.Errorf("async=%v step %d: got %v %v absorbed %d, want %v %v absorbed %d", async, round, g.vs, g.xs, g.absorbed, w.vs, w.xs, w.absorbed)
			}
		}
	}
}

// idPayload is a payload whose encoder replaces every part's set with
// the one id, drawn from the universe [id, id+1), the way a corrupted or
// misaddressed part would arrive.
type idPayload[V any] struct {
	Payload[V]
	id uint32
}

func (p idPayload[V]) Encode(s Set, xs []V, _ uint32, _ int) []uint32 {
	if s.Count == 0 {
		return nil
	}
	return p.Payload.Encode(Set{IDs: []uint32{p.id}, Count: 1}, xs[:1], p.id, 1)
}

// TestCombineOutOfRangePanics: an arrived id just below or at the end
// of the owner's range [150, 300), or at either end of the ids a part
// can carry (the wire reserves the top two), panics in the owner's
// merge, naming the id and the range, and so does a bitmap over the
// one-id universe at it; World.Run returns the panic as the run's error,
// under both schedules and for both merge forms.
func TestCombineOutOfRangePanics(t *testing.T) {
	stores := emptyStores(t, 300, 1, 2)
	for _, id := range []uint32{149, 300, 0, math.MaxUint32 - 2} {
		for wire, want := range map[frontier.WireMode]string{
			frontier.WireSparse: fmt.Sprintf("fold id %d outside its owner's range [150, 300)", id),
			frontier.WireDense:  fmt.Sprintf("fold set over [%d, %d) outside its owner's range [150, 300)", id, uint64(id)+1),
		} {
			for _, async := range []bool{false, true} {
				check := func(form string, err error) {
					t.Helper()
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Errorf("%s %v async=%v: the run's error is %v, want one naming %q", form, wire, async, err, want)
					}
				}
				mins := []foldCase[uint32]{{mesh: comm.Mesh{R: 1, C: 2}, stores: stores, bins: [][][]pair[uint32]{{nil, {{170, 4}}}, {nil, nil}}}}
				_, err := deliverCases(mins, async, minMerge, func(h *frontier.ContainerHist) Payload[uint32] {
					return idPayload[uint32]{minPayload{wire, h}, id}
				})
				check("min", err)
				ors := []foldCase[uint64]{{mesh: comm.Mesh{R: 1, C: 2}, stores: stores, bins: [][][]pair[uint64]{{nil, {{170, 4}}}, {nil, nil}}}}
				_, err = deliverCases(ors, async, orMerge, func(h *frontier.ContainerHist) Payload[uint64] {
					return idPayload[uint64]{orPayload{wire, h}, id}
				})
				check("or", err)
			}
		}
	}
}
