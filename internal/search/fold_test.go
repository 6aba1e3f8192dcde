package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/localindex"
	"repro/internal/partition"
)

// The two payloads the families bind, reduced to their essentials: a
// lane mask merged by OR (two value words a vertex, one header word the
// way bfs frames its mask form) and a distance merged by min.

type orPayload struct {
	wire frontier.WireMode
	hist *frontier.ContainerHist
}

func (orPayload) Add(cb *localindex.Combiner, vs []uint32, ms []uint64) { cb.AddOr(vs, ms) }
func (orPayload) Drain(cb *localindex.Combiner, vs []uint32, ms []uint64) ([]uint32, []uint64, int) {
	return cb.DrainOr(vs, ms)
}
func (p orPayload) Encode(vs []uint32, ms []uint64, lo uint32, n int) []uint32 {
	if len(vs) == 0 {
		return nil
	}
	out := FrameSet(vs, lo, n, p.wire, p.hist, 2*len(ms), 0xfeed)
	for _, m := range ms {
		out = append(out, uint32(m), uint32(m>>32))
	}
	return out
}
func (orPayload) Decode(buf, vs []uint32, ms []uint64) ([]uint32, []uint64) {
	if len(buf) == 0 {
		return vs[:0], ms[:0]
	}
	vs, hdr, rest := UnframeSet(buf, vs, 1)
	if hdr[0] != 0xfeed || len(rest) != 2*len(vs) {
		panic("or payload mangled")
	}
	ms = ms[:0]
	for i := range vs {
		ms = append(ms, uint64(rest[2*i])|uint64(rest[2*i+1])<<32)
	}
	return vs, ms
}

type minPayload struct {
	wire frontier.WireMode
	hist *frontier.ContainerHist
}

func (minPayload) Add(cb *localindex.Combiner, vs, ds []uint32) { cb.AddMin(vs, ds) }
func (minPayload) Drain(cb *localindex.Combiner, vs, ds []uint32) ([]uint32, []uint32, int) {
	return cb.DrainMin(vs, ds)
}
func (p minPayload) Encode(vs, ds []uint32, lo uint32, n int) []uint32 {
	if len(vs) == 0 {
		return nil
	}
	return append(FrameSet(vs, lo, n, p.wire, p.hist, len(ds)), ds...)
}
func (minPayload) Decode(buf, vs, _ []uint32) ([]uint32, []uint32) {
	if len(buf) == 0 {
		return vs[:0], nil
	}
	vs, _, ds := UnframeSet(buf, vs, 0)
	return vs, ds
}

// foldCase is one fold's inputs, the same on every schedule: bins[r][m]
// holds the raw (vertex, value) pairs rank r found for member m.
type foldCase[V any] struct {
	l    partition.View
	bins [][][]pair[V]
}

type pair[V any] struct {
	v uint32
	x V
}

// makeCase draws the bins of step round on a p-rank world over n
// vertices: random pairs with plenty of repeats, every third rank's
// first bin empty, and one all-duplicate bin per rank.
func makeCase[V any](t *testing.T, n, p, round int, value func(*rand.Rand) V) foldCase[V] {
	t.Helper()
	l1, err := partition.NewLayout2D(n, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	fc := foldCase[V]{l: l1.View(), bins: make([][][]pair[V], p)}
	rng := rand.New(rand.NewSource(int64(1000*p + round)))
	for r := range fc.bins {
		fc.bins[r] = make([][]pair[V], p)
		for m := range fc.bins[r] {
			lo, hi := fc.l.OwnedRange(m)
			switch {
			case hi == lo || (r%3 == 0 && m == (r+1)%p):
				// empty bin
			case m == (r+2)%p:
				v := uint32(lo) + uint32(rng.Intn(int(hi-lo)))
				for i := 0; i < 9; i++ {
					fc.bins[r][m] = append(fc.bins[r][m], pair[V]{v, value(rng)})
				}
			default:
				span := 1 + rng.Intn(int(hi-lo)) // a narrow span repeats vertices
				for i, k := 0, rng.Intn(60); i < k; i++ {
					fc.bins[r][m] = append(fc.bins[r][m], pair[V]{uint32(lo) + uint32(rng.Intn(span)), value(rng)})
				}
			}
		}
	}
	return fc
}

// reference computes what rank owner must receive, by sorting: the
// merged pairs ascending, and the duplicates absorbed on its way — in
// its own send-side merges and in its merge of the arrivals.
func (fc foldCase[V]) reference(owner int, merge func(a, b V) V) (vs []uint32, xs []V, absorbed int) {
	mergeSorted := func(ps []pair[V]) []pair[V] {
		ps = slices.Clone(ps)
		sort.SliceStable(ps, func(i, j int) bool { return ps[i].v < ps[j].v })
		var out []pair[V]
		for _, p := range ps {
			if k := len(out) - 1; k >= 0 && out[k].v == p.v {
				out[k].x = merge(out[k].x, p.x)
			} else {
				out = append(out, p)
			}
		}
		return out
	}
	for _, bin := range fc.bins[owner] {
		absorbed += len(bin) - len(mergeSorted(bin))
	}
	var arrived []pair[V]
	for r := range fc.bins {
		arrived = append(arrived, mergeSorted(fc.bins[r][owner])...)
	}
	merged := mergeSorted(arrived)
	absorbed += len(arrived) - len(merged)
	for _, p := range merged {
		vs, xs = append(vs, p.v), append(xs, p.x)
	}
	return vs, xs, absorbed
}

type foldGot[V any] struct {
	vs        []uint32
	xs        []V
	recvWords int
	absorbed  int
}

// runFold delivers rounds steps of cases on one Fold per rank — the
// scratch is reused from step to step, as in the engines — under the
// given schedule, its bins presized to the largest each step fills when
// presize is set (as the lane fold sizes them from the store).
func runFold[V any](t *testing.T, cases []foldCase[V], async, presize bool, payload func(h *frontier.ContainerHist) Payload[V]) [][]foldGot[V] {
	t.Helper()
	p := cases[0].l.P()
	w := testWorld(t, p)
	got := make([][]foldGot[V], p)
	if _, err := w.Run(func(c *comm.Comm) {
		o := Defaults()
		o.Async = async
		var hist frontier.ContainerHist
		var caps []uint32
		if presize {
			caps = make([]uint32, p)
			for _, fc := range cases {
				for m, bin := range fc.bins[c.Rank()] {
					caps[m] = max(caps[m], uint32(len(bin)))
				}
			}
		}
		f := NewFold(c, comm.Mesh{R: 1, C: p}.RowGroup(c.Rank()), &o, cases[0].l, payload(&hist), caps)
		for round, fc := range cases {
			b := f.Reset()
			for m, bin := range fc.bins[c.Rank()] {
				for _, pr := range bin {
					b.V[m], b.X[m] = append(b.V[m], pr.v), append(b.X[m], pr.x)
				}
			}
			var st Step
			vs, xs, absorbed := f.Deliver(64*round, &st)
			got[c.Rank()] = append(got[c.Rank()], foldGot[V]{slices.Clone(vs), slices.Clone(xs), st.FoldWords, absorbed})
		}
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func checkFold[V any](t *testing.T, value func(*rand.Rand) V, merge func(a, b V) V, payload func(frontier.WireMode, *frontier.ContainerHist) Payload[V]) {
	for _, p := range []int{1, 2, 3, 6, 7} {
		for _, wire := range []frontier.WireMode{frontier.WireSparse, frontier.WireHybrid} {
			t.Run(fmt.Sprintf("p%d/%v", p, wire), func(t *testing.T) {
				cases := []foldCase[V]{makeCase(t, 997, p, 0, value), makeCase(t, 997, p, 1, value)}
				bind := func(h *frontier.ContainerHist) Payload[V] { return payload(wire, h) }
				sync, async := runFold(t, cases, false, false, bind), runFold(t, cases, true, false, bind)
				if !reflect.DeepEqual(sync, async) {
					t.Errorf("the schedules disagree:\nsync  %+v\nasync %+v", sync, async)
				}
				if sized := runFold(t, cases, false, true, bind); !reflect.DeepEqual(sync, sized) {
					t.Errorf("presized bins disagree:\ngrown %+v\nsized %+v", sync, sized)
				}
				for rank := range sync {
					for round, g := range sync[rank] {
						vs, xs, absorbed := cases[round].reference(rank, merge)
						if !slices.Equal(g.vs, vs) || !reflect.DeepEqual(g.xs, xs) || g.absorbed != absorbed {
							t.Errorf("rank %d step %d: got %d pairs absorbing %d, the sorted reference has %d absorbing %d",
								rank, round, len(g.vs), g.absorbed, len(vs), absorbed)
						}
					}
				}
			})
		}
	}
}

// TestFoldAgainstSortedReference: the generic value fold delivers, for
// OR and for min, exactly what sorting the raw bins and merging equal
// vertices would — same pairs, same absorbed-duplicate count — at every
// group size, with empty and all-duplicate bins, under both wire codecs,
// and the two schedules agree to the received word.
func TestFoldAgainstSortedReference(t *testing.T) {
	t.Run("or", func(t *testing.T) {
		checkFold(t,
			func(r *rand.Rand) uint64 { return 1 << uint(r.Intn(64)) },
			func(a, b uint64) uint64 { return a | b },
			func(w frontier.WireMode, h *frontier.ContainerHist) Payload[uint64] { return orPayload{w, h} })
	})
	t.Run("min", func(t *testing.T) {
		checkFold(t,
			func(r *rand.Rand) uint32 { return uint32(r.Intn(1 << 20)) },
			func(a, b uint32) uint32 { return min(a, b) },
			func(w frontier.WireMode, h *frontier.ContainerHist) Payload[uint32] { return minPayload{w, h} })
	})
}

// TestUnframeSetRejectsTruncation: a payload cut inside its head or its
// set panics instead of decoding garbage.
func TestUnframeSetRejectsTruncation(t *testing.T) {
	buf := FrameSet([]uint32{3, 5, 8}, 0, 64, frontier.WireSparse, nil, 0, 7)
	for _, cut := range [][]uint32{buf[:1], buf[:len(buf)-1]} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a %d-word cut of a %d-word payload decoded", len(cut), len(buf))
				}
			}()
			UnframeSet(cut, nil, 1)
		}()
	}
}

// TestFrameSetOneAllocation: FrameSet's payload is [setWords, hdr...,
// the set's encoding] under every wire mode, with the histogram the
// encoder keeps on its own, and it allocates no more than encoding the
// set alone does, room for the tail values included.
func TestFrameSetOneAllocation(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(3))
	for _, frac := range []float64{0.0005, 0.02, 0.3, 0.9} {
		var vs []uint32
		for v := 0; v < n; v++ {
			if rng.Float64() < frac {
				vs = append(vs, uint32(v)+n)
			}
		}
		for _, mode := range []frontier.WireMode{frontier.WireSparse, frontier.WireDense, frontier.WireAuto, frontier.WireHybrid} {
			var hWant, hGot frontier.ContainerHist
			enc := frontier.EncodeSetStats(vs, n, n, mode, &hWant)
			out := FrameSet(vs, n, n, mode, &hGot, len(vs), 0xfeed, 0xbeef)
			want := append([]uint32{uint32(len(enc)), 0xfeed, 0xbeef}, enc...)
			if !slices.Equal(out, want) || hGot != hWant {
				t.Fatalf("frac %v %v: FrameSet differs from the encoder's payload or histogram", frac, mode)
			}
			if cap(out)-len(out) < len(vs) {
				t.Fatalf("frac %v %v: %d words of tail room for %d values", frac, mode, cap(out)-len(out), len(vs))
			}
			encAllocs := testing.AllocsPerRun(10, func() { frontier.EncodeSetStats(vs, n, n, mode, nil) })
			allocs := testing.AllocsPerRun(10, func() { FrameSet(vs, n, n, mode, nil, len(vs), 0xfeed, 0xbeef) })
			if allocs > encAllocs {
				t.Fatalf("frac %v %v: FrameSet makes %v allocations, encoding alone %v", frac, mode, allocs, encAllocs)
			}
		}
	}
}
