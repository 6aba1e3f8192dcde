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
		results[c.Rank()] = body(c, worldGroup(c))
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

func flattenParts(parts [][]uint32) []uint32 {
	var out []uint32
	for _, p := range parts {
		out = append(out, uint32(len(p)))
		out = append(out, p...)
	}
	return out
}

// scheduleRow is one row of TestSchedulesAgree: a pinned case (see
// pinCases) on the given group sizes and chunk sizes, and which of prep
// and handle its entry calls.
type scheduleRow struct {
	pinned       string
	ps, chunks   []int
	prep, handle bool
}

// scheduleOut is what one rank saw under one schedule.
type scheduleOut struct {
	parts          []uint32 // the handled parts in member order, framed
	acc            []uint32
	st             Stats
	preps, handles []int // calls per member
}

// TestSchedulesAgree is the schedule-equivalence table over the unified
// entries: under both values of Opts.Async every rank sees the same
// parts, gets the same result and the same Stats, prep and handle run
// exactly once per member — the self member included — wherever the
// entry takes them, and the pipelined schedule's simulated execution
// time is never above the synchronous one's with the same compute in
// every handle. Each row runs as its own subtest, named after its case.
func TestSchedulesAgree(t *testing.T) {
	cases := map[string]pinCase{}
	for _, pc := range pinCases {
		cases[pc.name] = pc
	}
	rows := []scheduleRow{
		{"exchange", []int{1, 2, 3, 4, 7, 8}, []int{0, 16}, true, true},
		{"rs-union", []int{1, 2, 4, 6}, []int{8}, true, false},
		{"rs-union-codec", []int{1, 2, 4, 6}, []int{8}, true, false},
		{"rs-or-codec", []int{1, 2, 4, 5}, []int{0, 8}, true, true},
		{"fold-direct", []int{1, 2, 4, 6}, []int{16}, true, false},
		{"fold-twophase", []int{1, 2, 4, 6, 9}, []int{16}, true, false},
		{"fold-twophase-nounion", []int{1, 2, 4, 6, 9}, []int{16}, true, false},
		{"gather-ring", []int{1, 2, 3, 5, 8}, []int{8}, false, true},
		{"expand-twophase", []int{1, 2, 4, 6, 9}, []int{16}, false, true},
		{"expand-twophase-merge", []int{1, 2, 4, 6, 9}, []int{16}, false, true},
	}
	for _, row := range rows {
		pc, ok := cases[row.pinned]
		if !ok {
			t.Fatalf("no pinned case %q", row.pinned)
		}
		t.Run(row.pinned, func(t *testing.T) {
			for _, p := range row.ps {
				for _, chunk := range row.chunks {
					all := randSets(p, 50, int64(11*p+chunk))
					if pc.bits {
						all = pinBits(p, int64(11*p+chunk))
					}
					run := func(async bool) ([]any, float64) {
						o := Opts{Tag: 40, Chunk: chunk, Async: async}
						return runTimed(t, p, func(c *comm.Comm, g comm.Group) any {
							out := scheduleOut{preps: make([]int, p), handles: make([]int, p)}
							parts := make([][]uint32, p)
							prep := func(m int) []uint32 {
								out.preps[m]++
								return all[g.Me][m]
							}
							handle := func(m int, part []uint32) {
								out.handles[m]++
								parts[m] = part
								c.ChargeItems(len(part)+8, 1e-7)
							}
							out.acc, out.st = pc.run(c, g, o, all, prep, handle)
							out.parts = flattenParts(parts)
							return out
						})
					}
					sync, syncT := run(false)
					async, asyncT := run(true)
					name := fmt.Sprintf("p=%d chunk=%d", p, chunk)
					for r := 0; r < p; r++ {
						s, a := sync[r].(scheduleOut), async[r].(scheduleOut)
						if !reflect.DeepEqual(s.parts, a.parts) || !reflect.DeepEqual(s.acc, a.acc) {
							t.Fatalf("%s rank %d: the schedules delivered different parts or results", name, r)
						}
						if s.st != a.st {
							t.Fatalf("%s rank %d: stats differ: sync %+v, async %+v", name, r, s.st, a.st)
						}
						for _, o := range []scheduleOut{s, a} {
							for m := 0; m < p; m++ {
								if o.preps[m] != b2i(row.prep) || o.handles[m] != b2i(row.handle) {
									t.Fatalf("%s rank %d: member %d prepared %d times and handled %d times", name, r, m, o.preps[m], o.handles[m])
								}
							}
						}
					}
					if asyncT > syncT {
						t.Fatalf("%s: async simexec %g > sync %g", name, asyncT, syncT)
					}
				}
			}
		})
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
				_, st := Gather(c, g, o, "twophase", data[g.Me], nil)
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
// — making each member's set (Sets.Len) once, in member order.
func TestFoldAsyncDispatch(t *testing.T) {
	const p = 4
	all := randSets(p, 30, 99)
	for _, alg := range []string{"direct", "twophase", "twophase-union", "twophase-nounion"} {
		want, _ := runTimed(t, p, func(c *comm.Comm, g comm.Group) any {
			acc, _ := ReduceScatterUnion(c, g, Opts{Tag: 5}, SetList(all[g.Me]))
			return acc
		})
		async, _ := runTimed(t, p, func(c *comm.Comm, g comm.Group) any {
			acc, st := FoldAsync(c, g, Opts{Tag: 5}, alg, prepared(all[g.Me]))
			return foldOut{acc, st}
		})
		sync, _ := runTimed(t, p, func(c *comm.Comm, g comm.Group) any {
			next := 0
			acc, st := Fold(c, g, Opts{Tag: 5}, alg, prepSets{func(m int) []uint32 {
				if m != next {
					panic(fmt.Sprintf("prep(%d) called when member %d was due", m, next))
				}
				next++
				return all[g.Me][m]
			}, make([][]uint32, p)})
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
