package collective

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/localindex"
)

// runGroup runs body on a world of size p where the whole world is one
// group, and returns per-rank results.
func runGroup(t *testing.T, p int, body func(c *comm.Comm, g comm.Group) any) []any {
	t.Helper()
	w, err := comm.NewWorld(comm.Config{P: p})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]any, p)
	var mu sync.Mutex
	_, err = w.Run(func(c *comm.Comm) {
		ranks := make([]int, p)
		for i := range ranks {
			ranks[i] = i
		}
		g := comm.Group{Ranks: ranks, Me: c.Rank()}
		r := body(c, g)
		mu.Lock()
		results[c.Rank()] = r
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// randSets builds deterministic per-rank, per-destination sorted sets.
func randSets(p, maxLen int, seed int64) [][][]uint32 {
	rng := rand.New(rand.NewSource(seed))
	all := make([][][]uint32, p)
	for r := 0; r < p; r++ {
		all[r] = make([][]uint32, p)
		for d := 0; d < p; d++ {
			n := rng.Intn(maxLen + 1)
			s := make([]uint32, n)
			for i := range s {
				s[i] = uint32(rng.Intn(200))
			}
			all[r][d], _ = localindex.SortSet(s)
		}
	}
	return all
}

// refUnionTo computes the reference fold result: union of all[r][dst]
// over r.
func refUnionTo(all [][][]uint32, dst int) []uint32 {
	set := map[uint32]bool{}
	for r := range all {
		for _, v := range all[r][dst] {
			set[v] = true
		}
	}
	out := make([]uint32, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestFactorGrid(t *testing.T) {
	cases := []struct{ g, a, b int }{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {6, 3, 2}, {12, 4, 3},
		{16, 4, 4}, {7, 7, 1}, {36, 6, 6}, {100, 10, 10},
	}
	for _, c := range cases {
		a, b := FactorGrid(c.g)
		if a != c.a || b != c.b {
			t.Errorf("FactorGrid(%d) = %d,%d want %d,%d", c.g, a, b, c.a, c.b)
		}
		if a*b != c.g || b > a {
			t.Errorf("FactorGrid(%d) invariants violated: %dx%d", c.g, a, b)
		}
	}
}

func TestBundleRoundTrip(t *testing.T) {
	sets := [][]uint32{{1, 2, 3}, {}, {9}, {4, 5}}
	got := decodeBundle(encodeBundle(sets), len(sets))
	if !reflect.DeepEqual(got, [][]uint32{{1, 2, 3}, nil, {9}, {4, 5}}) {
		// decode produces zero-length (nil-capacity) slices for empties
		for i := range sets {
			if len(got[i]) != len(sets[i]) {
				t.Fatalf("bundle mismatch at %d: %v vs %v", i, got[i], sets[i])
			}
			for j := range sets[i] {
				if got[i][j] != sets[i][j] {
					t.Fatalf("bundle mismatch at %d: %v vs %v", i, got[i], sets[i])
				}
			}
		}
	}
}

func TestAllGatherAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 8} {
		for _, chunk := range []int{0, 3} {
			t.Run(fmt.Sprintf("p=%d chunk=%d", p, chunk), func(t *testing.T) {
				results := runGroup(t, p, func(c *comm.Comm, g comm.Group) any {
					mine := []uint32{uint32(c.Rank()) * 10, uint32(c.Rank())*10 + 1}
					out, _ := Gather(c, g, Opts{Tag: 1, Chunk: chunk}, "allgather", mine, nil)
					return out
				})
				for r, res := range results {
					out := res.([][]uint32)
					for i := 0; i < p; i++ {
						want := []uint32{uint32(i) * 10, uint32(i)*10 + 1}
						if !reflect.DeepEqual(out[i], want) {
							t.Fatalf("rank %d: out[%d] = %v want %v", r, i, out[i], want)
						}
					}
				}
			})
		}
	}
}

func TestAllToAllAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		for _, chunk := range []int{0, 2} {
			all := randSets(p, 6, int64(p*100+chunk))
			results := runGroup(t, p, func(c *comm.Comm, g comm.Group) any {
				out, _ := AllToAll(c, g, Opts{Tag: 1, Chunk: chunk}, all[c.Rank()])
				return out
			})
			for dst, res := range results {
				out := res.([][]uint32)
				for src := 0; src < p; src++ {
					want := all[src][dst]
					if len(out[src]) != len(want) {
						t.Fatalf("p=%d: dst %d from src %d: %v want %v", p, dst, src, out[src], want)
					}
					for i := range want {
						if out[src][i] != want[i] {
							t.Fatalf("p=%d: dst %d from src %d: %v want %v", p, dst, src, out[src], want)
						}
					}
				}
			}
		}
	}
}

func TestReduceScatterUnionMatchesReference(t *testing.T) {
	for _, p := range []int{1, 2, 4, 6} {
		all := randSets(p, 10, int64(p))
		results := runGroup(t, p, func(c *comm.Comm, g comm.Group) any {
			out, _ := ReduceScatterUnion(c, g, Opts{Tag: 1}, SetList(all[c.Rank()]))
			return out
		})
		for dst, res := range results {
			got := res.([]uint32)
			want := refUnionTo(all, dst)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("p=%d dst=%d: got %v want %v", p, dst, got, want)
			}
		}
	}
}

func TestTwoPhaseFoldEliminatesDuplicates(t *testing.T) {
	// All ranks send the same set to every destination: maximal
	// redundancy. The union-fold must count the eliminated duplicates.
	p := 9
	shared := []uint32{1, 2, 3, 4, 5}
	results := runGroup(t, p, func(c *comm.Comm, g comm.Group) any {
		send := make([][]uint32, p)
		for i := range send {
			send[i] = shared
		}
		out, st := TwoPhaseFold(c, g, Opts{Tag: 1}, send)
		return struct {
			set []uint32
			st  Stats
		}{out, st}
	})
	totalDups := 0
	for dst, res := range results {
		r := res.(struct {
			set []uint32
			st  Stats
		})
		if !reflect.DeepEqual(r.set, shared) {
			t.Fatalf("dst %d: got %v want %v", dst, r.set, shared)
		}
		totalDups += r.st.Dups
	}
	// Each destination's union collapses p copies to 1: (p-1)*len
	// duplicates per destination must be eliminated somewhere.
	want := p * (p - 1) * len(shared)
	if totalDups != want {
		t.Fatalf("total dups = %d, want %d", totalDups, want)
	}
}

func TestTwoPhaseFoldInFlightReductionShrinksTraffic(t *testing.T) {
	// With full redundancy the union-fold's in-flight reduction must
	// move far fewer words than the same two-phase schedule without
	// union (the comparison behind Fig. 7).
	p := 16
	shared := make([]uint32, 64)
	for i := range shared {
		shared[i] = uint32(i)
	}
	volume := func(union bool) int {
		w, err := comm.NewWorld(comm.Config{P: p})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		var mu sync.Mutex
		_, err = w.Run(func(c *comm.Comm) {
			ranks := make([]int, p)
			for i := range ranks {
				ranks[i] = i
			}
			g := comm.Group{Ranks: ranks, Me: c.Rank()}
			send := make([][]uint32, p)
			for i := range send {
				send[i] = shared
			}
			out, st := TwoPhaseFold(c, g, Opts{Tag: 1, NoUnion: !union}, send)
			if len(out) != len(shared) {
				panic("fold result wrong size")
			}
			mu.Lock()
			total += st.RecvWords
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	noUnion := volume(false)
	withUnion := volume(true)
	if withUnion*2 >= noUnion {
		t.Fatalf("union-fold volume %d not well below no-union %d", withUnion, noUnion)
	}
}

func TestTwoPhaseFoldNoUnionSameResult(t *testing.T) {
	for _, p := range []int{4, 6, 9} {
		all := randSets(p, 8, int64(p*7))
		results := runGroup(t, p, func(c *comm.Comm, g comm.Group) any {
			out, _ := TwoPhaseFold(c, g, Opts{Tag: 1, NoUnion: true}, all[c.Rank()])
			return out
		})
		for dst, res := range results {
			got := res.([]uint32)
			want := refUnionTo(all, dst)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("p=%d dst=%d: no-union fold got %v want %v", p, dst, got, want)
			}
		}
	}
}

func TestTwoPhaseExpandMatchesAllGather(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6, 8, 9, 12} {
		for _, chunk := range []int{0, 3} {
			results := runGroup(t, p, func(c *comm.Comm, g comm.Group) any {
				mine := []uint32{uint32(c.Rank()), uint32(c.Rank()) + 100}
				out, _ := TwoPhaseExpand(c, g, Opts{Tag: 1, Chunk: chunk}, mine)
				return out
			})
			for r, res := range results {
				out := res.([][]uint32)
				for i := 0; i < p; i++ {
					want := []uint32{uint32(i), uint32(i) + 100}
					if len(out[i]) != 2 || out[i][0] != want[0] || out[i][1] != want[1] {
						t.Fatalf("p=%d chunk=%d rank %d: out[%d] = %v want %v", p, chunk, r, i, out[i], want)
					}
				}
			}
		}
	}
}

func TestAllToAllEmptyPayloads(t *testing.T) {
	p := 4
	results := runGroup(t, p, func(c *comm.Comm, g comm.Group) any {
		send := make([][]uint32, p)
		out, st := AllToAll(c, g, Opts{Tag: 1}, send)
		if st.RecvWords != 0 {
			panic("nonzero recv words for empty exchange")
		}
		return out
	})
	for _, res := range results {
		out := res.([][]uint32)
		for _, s := range out {
			if len(s) != 0 {
				t.Fatal("expected empty results")
			}
		}
	}
}

func TestChunkedRoundTrip(t *testing.T) {
	w, err := comm.NewWorld(comm.Config{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 4, 5, 17} {
		data := make([]uint32, n)
		for i := range data {
			data[i] = uint32(i * 3)
		}
		_, err := w.Run(func(c *comm.Comm) {
			if c.Rank() == 0 {
				c.SendChunked(1, 9, data, 5)
			} else {
				got := c.RecvChunked(0, 9, 5)
				if len(got) != n {
					panic(fmt.Sprintf("chunked round trip: got %d words want %d", len(got), n))
				}
				for i := range got {
					if got[i] != uint32(i*3) {
						panic("chunked round trip: corrupted data")
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
