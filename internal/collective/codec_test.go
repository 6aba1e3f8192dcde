package collective

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/frontier"
)

func TestReduceScatterOr(t *testing.T) {
	for _, p := range []int{1, 2, 4, 5} {
		rng := rand.New(rand.NewSource(int64(p)))
		words := 4
		// send[r][d] is rank r's bitmap destined to d.
		send := make([][][]uint32, p)
		for r := 0; r < p; r++ {
			send[r] = make([][]uint32, p)
			for d := 0; d < p; d++ {
				w := make([]uint32, words)
				for i := range w {
					w[i] = rng.Uint32()
				}
				send[r][d] = w
			}
		}
		want := make([][]uint32, p)
		for d := 0; d < p; d++ {
			want[d] = make([]uint32, words)
			for r := 0; r < p; r++ {
				for i, w := range send[r][d] {
					want[d][i] |= w
				}
			}
		}
		results := runGroup(t, p, func(c *comm.Comm, g comm.Group) any {
			out, _ := ReduceScatterOr(c, g, Opts{Tag: 1}, prepared(send[g.Me]), nil)
			return out
		})
		for d := 0; d < p; d++ {
			if !reflect.DeepEqual(results[d].([]uint32), want[d]) {
				t.Fatalf("p=%d: rank %d OR mismatch", p, d)
			}
		}
	}
}

func TestReduceScatterOrUnevenLengths(t *testing.T) {
	// A short (even empty) straggler must still OR correctly into a
	// result sized to the longest payload.
	p := 3
	send := [][][]uint32{
		{{1}, {0, 0, 4}, nil},
		{nil, {2}, {8}},
		{{0, 16}, nil, nil},
	}
	want := [][]uint32{{1, 16}, {2, 0, 4}, {8}}
	results := runGroup(t, p, func(c *comm.Comm, g comm.Group) any {
		out, _ := ReduceScatterOr(c, g, Opts{Tag: 1}, prepared(send[g.Me]), nil)
		return out
	})
	for d := 0; d < p; d++ {
		got := results[d].([]uint32)
		if len(got) == 0 && len(want[d]) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want[d]) {
			t.Fatalf("rank %d: got %v want %v", d, got, want[d])
		}
	}
}

// ownerCodec encodes sets destined to member m against m's universe
// [m*span, (m+1)*span), the shape the BFS fold uses.
func ownerCodec(span int, mode frontier.WireMode) *Codec {
	return &Codec{
		Enc: func(dst []uint32, m int, set []uint32) []uint32 {
			return frontier.AppendEncodeSet(dst, set, uint32(m*span), span, mode, nil)
		},
		Dec:   func(m int, buf []uint32) []uint32 { return frontier.Decode(buf) },
		Bound: func(m, n int) int { return frontier.EncodeSetBound(mode, span, n) },
	}
}

// denseOwnerSets builds per-rank per-destination sets covering most of
// each destination's universe, the regime where bitmaps beat lists.
func denseOwnerSets(p, span int, seed int64) [][][]uint32 {
	rng := rand.New(rand.NewSource(seed))
	all := make([][][]uint32, p)
	for r := 0; r < p; r++ {
		all[r] = make([][]uint32, p)
		for d := 0; d < p; d++ {
			var s []uint32
			for v := 0; v < span; v++ {
				if rng.Intn(4) > 0 { // ~75% occupancy
					s = append(s, uint32(d*span+v))
				}
			}
			all[r][d] = s
		}
	}
	return all
}

func TestUnionFoldsWithCodecMatchPlain(t *testing.T) {
	const span = 128
	folds := map[string]func(c *comm.Comm, g comm.Group, o Opts, send [][]uint32) ([]uint32, Stats){
		"direct": func(c *comm.Comm, g comm.Group, o Opts, send [][]uint32) ([]uint32, Stats) {
			return ReduceScatterUnion(c, g, o, SetList(send))
		},
		"twophase": TwoPhaseFold,
	}
	for name, fold := range folds {
		for _, mode := range []frontier.WireMode{frontier.WireAuto, frontier.WireHybrid} {
			for _, p := range []int{1, 2, 4, 6} {
				all := denseOwnerSets(p, span, int64(p))
				type res struct {
					plain, coded []uint32
					plainW, codW int
				}
				results := runGroup(t, p, func(c *comm.Comm, g comm.Group) any {
					plain, pst := fold(c, g, Opts{Tag: 1}, all[g.Me])
					coded, cst := fold(c, g, Opts{Tag: 1 << 16, Codec: ownerCodec(span, mode)}, all[g.Me])
					return res{plain, coded, pst.RecvWords, cst.RecvWords}
				})
				for d := 0; d < p; d++ {
					r := results[d].(res)
					if !reflect.DeepEqual(r.plain, r.coded) {
						t.Fatalf("%s/%v p=%d rank %d: codec changed the fold result", name, mode, p, d)
					}
					if want := refUnionTo(all, d); !reflect.DeepEqual(r.coded, want) {
						t.Fatalf("%s/%v p=%d rank %d: fold result wrong", name, mode, p, d)
					}
					if p > 1 && r.codW > r.plainW {
						t.Errorf("%s/%v p=%d rank %d: dense payloads cost more words with codec (%d > %d)",
							name, mode, p, d, r.codW, r.plainW)
					}
				}
			}
		}
	}
}

// bitsCodec encodes ReduceScatterOr claim bitmaps with the hybrid
// container codec; every destination's universe is span bits.
func bitsCodec(span int) *Codec {
	return &Codec{
		Enc: func(dst []uint32, m int, w []uint32) []uint32 {
			return append(dst, frontier.EncodeBits(w, span, frontier.WireHybrid, nil)...)
		},
		Dec: func(m int, buf []uint32) []uint32 {
			return frontier.DecodeBits(buf, span)
		},
	}
}

// TestReduceScatterOrWithCodec: the OR reduce-scatter must produce
// identical bitmaps under the hybrid bits codec, and sparse claim
// bitmaps must compress.
func TestReduceScatterOrWithCodec(t *testing.T) {
	const span = 4096 // bits per destination bitmap
	for _, p := range []int{2, 4, 5} {
		rng := rand.New(rand.NewSource(int64(p)))
		send := make([][][]uint32, p)
		for r := 0; r < p; r++ {
			send[r] = make([][]uint32, p)
			for d := 0; d < p; d++ {
				w := frontier.NewBits(span)
				for i := 0; i < 40; i++ { // ~1% occupancy: the claim regime
					frontier.SetBit(w, uint32(rng.Intn(span)))
				}
				send[r][d] = w
			}
		}
		type res struct {
			plain, coded []uint32
			plainW, codW int
		}
		results := runGroup(t, p, func(c *comm.Comm, g comm.Group) any {
			plain, pst := ReduceScatterOr(c, g, Opts{Tag: 1}, prepared(send[g.Me]), nil)
			coded, cst := ReduceScatterOr(c, g, Opts{Tag: 1 << 16, Codec: bitsCodec(span)}, prepared(send[g.Me]), nil)
			return res{plain, coded, pst.RecvWords, cst.RecvWords}
		})
		for d := 0; d < p; d++ {
			r := results[d].(res)
			if !reflect.DeepEqual(r.plain, r.coded) {
				t.Fatalf("p=%d rank %d: bits codec changed the OR result", p, d)
			}
			if r.codW >= r.plainW {
				t.Errorf("p=%d rank %d: sparse claims did not compress (%d >= %d words)", p, d, r.codW, r.plainW)
			}
		}
	}
}

func TestTwoPhaseFoldCodecIgnoredUnderNoUnion(t *testing.T) {
	p := 4
	all := randSets(p, 40, 9)
	results := runGroup(t, p, func(c *comm.Comm, g comm.Group) any {
		out, _ := TwoPhaseFold(c, g, Opts{Tag: 1, NoUnion: true, Codec: ownerCodec(64, frontier.WireAuto)}, all[g.Me])
		return out
	})
	for d := 0; d < p; d++ {
		want := refUnionTo(all, d)
		got := results[d].([]uint32)
		if len(got) != len(want) {
			t.Fatalf("rank %d: nounion+codec result wrong", d)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank %d: nounion+codec result wrong at %d", d, i)
			}
		}
	}
}

func TestCodecChunkingInteraction(t *testing.T) {
	// Encoded payloads must survive the fixed-length buffer discipline.
	const span = 128
	p := 4
	all := denseOwnerSets(p, span, 7)
	results := runGroup(t, p, func(c *comm.Comm, g comm.Group) any {
		out, _ := TwoPhaseFold(c, g, Opts{Tag: 1, Chunk: 16, Codec: ownerCodec(span, frontier.WireDense)}, all[g.Me])
		return out
	})
	for d := 0; d < p; d++ {
		if want := refUnionTo(all, d); !reflect.DeepEqual(results[d].([]uint32), want) {
			t.Fatalf("rank %d: chunked codec fold wrong", d)
		}
	}
}
