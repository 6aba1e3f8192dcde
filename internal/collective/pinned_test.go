package collective

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/frontier"
)

// clocksPath holds TestCollectiveClocksPinned's readings: one line per
// case, schedule, group size, chunk size and rank — the rank's Clock,
// CommTime and OverlapTime at full precision, its Stats and a digest of
// the parts its handle saw and the result it got.
const clocksPath = "testdata/clocks.tsv"

var updateClocks = flag.Bool("update", false, "rewrite "+clocksPath+" from this tree's readings")

// The fixed compute the pinned cases charge per prepared payload and per
// handled part, so the overlapped schedule has work to hide transfers
// under.
const (
	prepCompute   = 1e-6
	handleCompute = 4e-6
)

// pinCase is one exchange the engines use, driven under both schedules.
// run calls it on rank c with prep and handle charging the fixed compute
// and returns the reduced result, if any, and the Stats.
type pinCase struct {
	name string
	bits bool // payloads are claim bitmaps rather than sorted sets
	run  func(c *comm.Comm, g comm.Group, o Opts, all [][][]uint32, prep Prep, handle Handle) ([]uint32, Stats)
}

// pinSpan is the universe of the pinned cases' sets, and the width of
// their claim bitmaps.
const pinSpan = 200

func pinSetCodec() *Codec {
	return &Codec{
		Enc: func(dst []uint32, m int, s []uint32) []uint32 {
			return frontier.AppendEncodeSet(dst, s, 0, pinSpan, frontier.WireHybrid, nil)
		},
		Dec:   func(m int, b []uint32) []uint32 { return frontier.Decode(b) },
		Bound: func(m, n int) int { return frontier.EncodeSetBound(frontier.WireHybrid, pinSpan, n) },
	}
}

// pinBits builds per-rank, per-destination sparse claim bitmaps.
func pinBits(p int, seed int64) [][][]uint32 {
	rng := rand.New(rand.NewSource(seed))
	all := make([][][]uint32, p)
	for r := range all {
		all[r] = make([][]uint32, p)
		for d := range all[r] {
			w := frontier.NewBits(pinSpan)
			for i := rng.Intn(12); i > 0; i-- {
				frontier.SetBit(w, uint32(rng.Intn(pinSpan)))
			}
			all[r][d] = w
		}
	}
	return all
}

var pinCases = []pinCase{
	{name: "exchange", run: func(c *comm.Comm, g comm.Group, o Opts, all [][][]uint32, prep Prep, handle Handle) ([]uint32, Stats) {
		return nil, Exchange(c, g, o, prep, handle)
	}},
	{name: "gather-ring", run: func(c *comm.Comm, g comm.Group, o Opts, all [][][]uint32, prep Prep, handle Handle) ([]uint32, Stats) {
		_, st := Gather(c, g, o, "allgather", all[g.Me][0], handle)
		return nil, st
	}},
	{name: "expand-twophase", run: pinTwoPhaseExpand},
	{name: "expand-twophase-merge", run: func(c *comm.Comm, g comm.Group, o Opts, all [][][]uint32, prep Prep, handle Handle) ([]uint32, Stats) {
		o.BundleMerge = testBundleCodec(g.Size())
		return pinTwoPhaseExpand(c, g, o, all, prep, handle)
	}},
	{name: "rs-union", run: pinReduceScatterUnion},
	{name: "rs-union-codec", run: func(c *comm.Comm, g comm.Group, o Opts, all [][][]uint32, prep Prep, handle Handle) ([]uint32, Stats) {
		o.Codec = pinSetCodec()
		return pinReduceScatterUnion(c, g, o, all, prep, handle)
	}},
	{name: "rs-or-codec", bits: true, run: func(c *comm.Comm, g comm.Group, o Opts, all [][][]uint32, prep Prep, handle Handle) ([]uint32, Stats) {
		o.Codec = bitsCodec(pinSpan)
		return ReduceScatterOr(c, g, o, prep, handle)
	}},
	{name: "fold-direct", run: pinFold("direct")},
	{name: "fold-twophase", run: pinFold("twophase")},
	{name: "fold-twophase-nounion", run: pinFold("twophase-nounion")},
}

func pinTwoPhaseExpand(c *comm.Comm, g comm.Group, o Opts, all [][][]uint32, prep Prep, handle Handle) ([]uint32, Stats) {
	_, st := Gather(c, g, o, "twophase", all[g.Me][0], handle)
	return nil, st
}

func pinReduceScatterUnion(c *comm.Comm, g comm.Group, o Opts, all [][][]uint32, prep Prep, handle Handle) ([]uint32, Stats) {
	return ReduceScatterUnion(c, g, o, prepSets{prep, make([][]uint32, g.Size())})
}

func pinFold(alg string) func(c *comm.Comm, g comm.Group, o Opts, all [][][]uint32, prep Prep, handle Handle) ([]uint32, Stats) {
	return func(c *comm.Comm, g comm.Group, o Opts, all [][][]uint32, prep Prep, handle Handle) ([]uint32, Stats) {
		return Fold(c, g, o, alg, prepSets{prep, make([][]uint32, g.Size())})
	}
}

// TestCollectiveClocksPinned holds every exchange the engines use still,
// bit for bit, under both schedules: each rank's simulated clock, its
// communication and overlap ledgers, its Stats, and what its handle saw
// in which order are compared with the readings in clocksPath. prep and
// handle charge a fixed compute each, so the overlapped schedule hides
// wire time and the synchronous one handles every part after the last
// arrival. Any difference is a change of schedule; -update re-records.
func TestCollectiveClocksPinned(t *testing.T) {
	var got []string
	for _, pc := range pinCases {
		for _, async := range []bool{false, true} {
			for _, p := range []int{1, 2, 4, 6, 7} {
				for _, chunk := range []int{0, 16} {
					sched := "sync"
					if async {
						sched = "async"
					}
					key := fmt.Sprintf("%s/%s/p%d/chunk%d", pc.name, sched, p, chunk)
					got = append(got, pinRun(t, key, pc, p, Opts{Tag: 100, Chunk: chunk, Async: async})...)
				}
			}
		}
	}
	if *updateClocks {
		if err := os.WriteFile(clocksPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(clocksPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d readings, this tree takes %d", clocksPath, len(want), len(got))
	}
	moved := 0
	for i := range want {
		if want[i] != got[i] {
			if moved++; moved <= 10 {
				t.Errorf("%s:%d moved:\n  recorded  %s\n  this tree %s", clocksPath, i+1, want[i], got[i])
			}
		}
	}
	if moved > 10 {
		t.Errorf("... %d readings moved in all", moved)
	}
}

// pinRun runs one case on a world of p ranks and returns one reading a
// rank.
func pinRun(t *testing.T, key string, pc pinCase, p int, o Opts) []string {
	t.Helper()
	all := randSets(p, 40, int64(p))
	if pc.bits {
		all = pinBits(p, int64(p))
	}
	w, err := comm.NewWorld(comm.Config{P: p})
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, p)
	comms, err := w.Run(func(c *comm.Comm) {
		g := worldGroup(c)
		h := fnv.New64a()
		word := func(v uint32) { h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}) }
		prep := func(m int) []uint32 {
			c.Compute(prepCompute)
			return all[g.Me][m]
		}
		handle := func(m int, part []uint32) {
			c.Compute(handleCompute)
			word(uint32(m))
			word(uint32(len(part)))
			for _, v := range part {
				word(v)
			}
		}
		acc, st := pc.run(c, g, o, all, prep, handle)
		word(uint32(len(acc)))
		for _, v := range acc {
			word(v)
		}
		lines[c.Rank()] = fmt.Sprintf("\t%d\t%d\t%x", st.RecvWords, st.Dups, h.Sum64())
	})
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for r, c := range comms {
		lines[r] = fmt.Sprintf("%s\t%d\t%s\t%s\t%s", key, r, g(c.Clock()), g(c.CommTime()), g(c.OverlapTime())) + lines[r]
	}
	return lines
}

// worldGroup is the group of every rank of c's world.
func worldGroup(c *comm.Comm) comm.Group {
	ranks := make([]int, c.Size())
	for i := range ranks {
		ranks[i] = i
	}
	return comm.Group{Ranks: ranks, Me: c.Rank()}
}
