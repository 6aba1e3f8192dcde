package frontier

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomSetWithStride builds an ascending set over [lo, lo+n) whose
// gaps hover around stride (the packed container's winning regime sits
// near stride 8: ~12% occupancy).
func randomSetWithStride(rng *rand.Rand, lo uint32, n int, stride int) []uint32 {
	var ids []uint32
	pos := rng.Intn(stride + 1)
	for pos < n {
		ids = append(ids, lo+uint32(pos))
		pos += 1 + rng.Intn(2*stride+1)
	}
	return ids
}

// TestPackedChunkRoundTrip drives the packed container directly across
// its edge cases: single member, consecutive members (width 0), maximum
// width, and word-boundary crossings.
func TestPackedChunkRoundTrip(t *testing.T) {
	cases := [][]uint32{
		{0},
		{4095},
		{1, 2, 3, 4, 5},          // width 0
		{0, 4095},                // width 12
		{0, 7, 14, 21, 28, 4000}, // mixed gaps
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		set := map[uint32]bool{}
		for i := 0; i < 1+rng.Intn(500); i++ {
			set[uint32(rng.Intn(ChunkSpan))] = true
		}
		var offs []uint32
		for v := range set {
			offs = append(offs, v)
		}
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		cases = append(cases, offs)
	}
	for i, offs := range cases {
		var h ContainerHist
		_, _, _, _, _, maxDelta := chunkCosts(offs, ChunkSpan)
		buf := appendPackedChunk(nil, offs, maxDelta, &h)
		if h.PackedChunks != 1 {
			t.Fatalf("case %d: accounting %+v", i, h)
		}
		if int(buf[0]&chunkWordsMask) != len(buf)-1 {
			t.Fatalf("case %d: header word count %d != payload %d", i, buf[0]&chunkWordsMask, len(buf)-1)
		}
		var got []uint32
		decodePackedChunk(buf[1:], ChunkSpan, func(off uint32) { got = append(got, off) })
		if !reflect.DeepEqual(got, offs) {
			t.Fatalf("case %d: round trip %v != %v", i, got, offs)
		}
	}
}

// TestPackedWinsCrossoverBand: in the ~12% occupancy band the packed
// container is chosen and the payload is strictly smaller than the best
// of the three legacy containers.
func TestPackedWinsCrossoverBand(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 4 * ChunkSpan
	ids := randomSetWithStride(rng, 0, n, 8)
	var h ContainerHist
	enc := EncodeSetStats(ids, 0, n, WireHybrid, &h)
	if h.PackedChunks == 0 {
		t.Fatalf("no packed chunks chosen at ~12%% occupancy: %+v", h)
	}
	if legacy := legacySetCost(ids, 0, n); len(enc) >= legacy {
		t.Fatalf("packed payload %d words not below legacy best %d", len(enc), legacy)
	}
	if !reflect.DeepEqual(Decode(enc), ids) {
		t.Fatal("crossover payload failed to round trip")
	}
}

// legacySetCost reproduces the pre-packed hybrid payload size: the
// cheapest of the raw list, the dense bitmap, and a chunk stream
// restricted to the list/bitmap/runs containers.
func legacySetCost(ids []uint32, lo uint32, n int) int {
	raw := len(ids)
	dense := 3 + BitWords(n)
	stream := 3
	i := 0
	for c := 0; c < numChunks(n); c++ {
		base := lo + uint32(c*ChunkSpan)
		span := n - c*ChunkSpan
		if span > ChunkSpan {
			span = ChunkSpan
		}
		var offs []uint32
		for i < len(ids) && ids[i]-lo < uint32(c*ChunkSpan)+uint32(span) {
			offs = append(offs, ids[i]-base)
			i++
		}
		stream++
		if len(offs) == 0 {
			continue
		}
		list, bitmap, runs, _, _, _ := chunkCosts(offs, span)
		best := list
		if runs < best {
			best = runs
		}
		if bitmap < best {
			best = bitmap
		}
		stream += best
	}
	best := raw
	if dense < best {
		best = dense
	}
	if stream < best {
		best = stream
	}
	return best
}

// TestHybridNeverRegresses: on any payload the four-container codec is
// at most the legacy three-container size (the packed form is only
// picked when strictly cheaper), and still round-trips.
func TestHybridNeverRegresses(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(6*ChunkSpan)
		lo := uint32(rng.Intn(1 << 20))
		var ids []uint32
		switch trial % 4 {
		case 0:
			ids = randomSetWithStride(rng, lo, n, 1+rng.Intn(64))
		case 1: // clustered runs
			pos := 0
			for pos < n {
				runLen := 1 + rng.Intn(50)
				for j := 0; j < runLen && pos < n; j++ {
					ids = append(ids, lo+uint32(pos))
					pos++
				}
				pos += rng.Intn(400)
			}
		case 2: // sparse scatter
			set := map[uint32]bool{}
			for j := 0; j < rng.Intn(40); j++ {
				set[lo+uint32(rng.Intn(n))] = true
			}
			for v := range set {
				ids = append(ids, v)
			}
			sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		case 3: // empty / tiny
			if n > 2 {
				ids = []uint32{lo + uint32(rng.Intn(n))}
			}
		}
		enc := EncodeSetStats(ids, lo, n, WireHybrid, nil)
		if legacy := legacySetCost(ids, lo, n); len(enc) > legacy {
			t.Fatalf("trial %d: new hybrid %d words > legacy %d (n=%d, |ids|=%d)",
				trial, len(enc), legacy, n, len(ids))
		}
		got := Decode(enc)
		if len(got) == 0 && len(ids) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, ids) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
}
