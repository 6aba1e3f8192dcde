package frontier

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/bits"
	"math/rand"
	"testing"
)

// hybridPinnedSHA is the SHA-256 of every stream and container
// histogram pinnedGrid encodes, recorded when the hybrid encoder still
// copied each chunk's offsets into scratch and priced them in a second
// walk. An encoder rewrite that moves one word or one histogram count
// moves it.
const hybridPinnedSHA = "90ca11a58959affff2e1b1454286de8f4764e760432d6639314caba364f2a65e"

// pinnedSets returns the sets the pinned grid encodes over [lo, lo+n):
// empty, one id, random sets from 0.1% to full occupancy, a run-heavy
// set and one in the packed container's band.
func pinnedSets(rng *rand.Rand, lo uint32, n int) [][]uint32 {
	sets := [][]uint32{nil, {lo + uint32(n)/2}}
	for _, frac := range []float64{0.001, 0.01, 0.05, 0.12, 0.2, 0.5, 0.9, 1} {
		sets = append(sets, randSet(rng, lo, n, int(frac*float64(n))))
	}
	return append(sets, clusteredSet(rng, lo, n), randomSetWithStride(rng, lo, n, 8))
}

// pinnedGrid feeds h, per universe, set and wire mode, what
// AppendEncodeSet (behind a one-word prefix), EncodeFrontier and
// EncodeBits write, each followed by its histogram.
func pinnedGrid(h hash.Hash) {
	word := func(v uint32) { binary.Write(h, binary.LittleEndian, v) }
	stream := func(s []uint32, hist ContainerHist) {
		word(uint32(len(s)))
		for _, v := range s {
			word(v)
		}
		binary.Write(h, binary.LittleEndian, hist)
	}
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{1, 63, 2500, 4096, 4097, 6250, 70000} {
		lo := uint32(rng.Intn(1 << 20))
		for _, ids := range pinnedSets(rng, lo, n) {
			f := New(lo, n)
			for _, v := range ids {
				f.Add(v)
			}
			w := IDsToBits(ids, lo, n)
			for _, mode := range allWireModes {
				var h1, h2, h3 ContainerHist
				stream(AppendEncodeSet([]uint32{0xabcd}, ids, lo, n, mode, &h1), h1)
				stream(EncodeFrontier(f, mode, &h2), h2)
				stream(EncodeBits(w, n, mode, &h3), h3)
			}
		}
	}
}

// TestHybridStreamPinned: the set, frontier and bitmap encoders write,
// under all four wire modes, the streams and histograms they wrote
// before the one-pass chunk encoder, over universes of one id to 17
// chunks and sets from empty to full.
func TestHybridStreamPinned(t *testing.T) {
	h := sha256.New()
	pinnedGrid(h)
	if got := hex.EncodeToString(h.Sum(nil)); got != hybridPinnedSHA {
		t.Fatalf("the pinned encode grid hashes to %s, want %s", got, hybridPinnedSHA)
	}
}

// refChunkCosts is the two-walk pricing the one-pass encoder replaced:
// the payload words of the list, bitmap, runs and packed containers for
// the chunk-relative offsets offs over span ids, the run count and the
// largest member gap, each varint measured byte by byte.
func refChunkCosts(offs []uint32, span int) (list, bitmap, runs, packed, nruns int, maxDelta uint32) {
	vlen := func(v uint32) int {
		n := 1
		for ; v >= 0x80; v >>= 7 {
			n++
		}
		return n
	}
	listBytes, runsBytes := vlen(uint32(len(offs))), 0
	prevEnd, runStart := uint32(0), uint32(0)
	for i, off := range offs {
		if i == 0 {
			listBytes += vlen(off)
			runStart = off
			nruns++
			continue
		}
		d := off - offs[i-1] - 1
		maxDelta = max(maxDelta, d)
		listBytes += vlen(d)
		if off != offs[i-1]+1 {
			runsBytes += vlen(runStart-prevEnd) + vlen(offs[i-1]-runStart)
			prevEnd, runStart = offs[i-1]+1, off
			nruns++
		}
	}
	if len(offs) > 0 {
		runsBytes += vlen(runStart-prevEnd) + vlen(offs[len(offs)-1]-runStart)
	}
	runsBytes += vlen(uint32(nruns))
	packed = 1
	if len(offs) > 1 {
		packed = 1 + ((len(offs)-1)*bits.Len32(maxDelta)+31)/32
	}
	return (listBytes + 3) / 4, BitWords(span), (runsBytes + 3) / 4, packed, nruns, maxDelta
}

// costChunks returns random chunks over span ids at every occupancy
// shape the pricing distinguishes: gaps around the two-byte varint
// bound, runs around the two-byte length bound, single ids and full
// chunks.
func costChunks(rng *rand.Rand, span int) [][]uint32 {
	var out [][]uint32
	for trial := 0; trial < 400; trial++ {
		var offs []uint32
		next := uint32(rng.Intn(min(span, 300)))
		for int(next) < span {
			offs = append(offs, next)
			switch trial % 5 {
			case 0: // gaps around 128
				next += 1 + uint32(rng.Intn(260))
			case 1: // long runs with gaps around 128
				if rng.Intn(200) == 0 {
					next += 126 + uint32(rng.Intn(5))
				} else {
					next++
				}
			case 2: // runs of 120..140 ids
				if len(offs)%(120+rng.Intn(21)) == 0 {
					next += 2 + uint32(rng.Intn(300))
				} else {
					next++
				}
			case 3:
				next += 1 + uint32(rng.Intn(9))
			default:
				next += 1 + uint32(rng.Intn(1+rng.Intn(span)))
			}
		}
		if trial%40 == 7 {
			offs = offs[:min(len(offs), 1)]
		}
		out = append(out, offs)
	}
	full := make([]uint32, span)
	for i := range full {
		full[i] = uint32(i)
	}
	return append(out, full)
}

// TestChunkCostsMatchReference: the one-pass pricing of a chunk — from
// its ids, and from its bitmap words — agrees with the two-walk
// reference on every container, the run count and the largest gap.
func TestChunkCostsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, span := range []int{ChunkSpan, 2500, 97, 1} {
		priced := func(s chunkStats) string {
			list, bitmap, runs, packed := s.costs(span)
			return fmt.Sprint(list, bitmap, runs, packed, s.nruns, s.maxDelta)
		}
		for i, offs := range costChunks(rng, span) {
			want := fmt.Sprint(refChunkCosts(offs, span))
			base := uint32(3 * ChunkSpan)
			ids := make([]uint32, len(offs))
			for k, off := range offs {
				ids[k] = base + off
			}
			if got := priced(idStats(ids, base)); got != want {
				t.Fatalf("span %d chunk %d (%d ids): costs from the ids %s, reference %s", span, i, len(offs), got, want)
			}
			if got := priced(bitStats(IDsToBits(offs, 0, span))); got != want {
				t.Fatalf("span %d chunk %d (%d ids): costs from the bitmap %s, reference %s", span, i, len(offs), got, want)
			}
		}
	}
}

// benchSets returns the hybrid-mode sets the codec benchmarks time: a
// value fold's member universes on the lab's graphs (2,500 ids, one
// chunk and a partial; 6,250 ids, one and a half) at 1, 5, 20 and 50%
// occupancy.
func benchSets(b *testing.B, run func(b *testing.B, ids []uint32, n int)) {
	for _, n := range []int{2500, 6250} {
		for _, pct := range []int{1, 5, 20, 50} {
			rng := rand.New(rand.NewSource(int64(n + pct)))
			var ids []uint32
			for v := 0; v < n; v++ {
				if rng.Intn(100) < pct {
					ids = append(ids, uint32(n+v))
				}
			}
			b.Run(fmt.Sprintf("n=%d/occupancy=%d%%", n, pct), func(b *testing.B) {
				b.ReportAllocs()
				run(b, ids, n)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(max(len(ids), 1)), "ns/id")
			})
		}
	}
}

// BenchmarkEncodeSet times AppendEncodeSet in hybrid mode into a reused
// buffer: 0 allocs/op.
func BenchmarkEncodeSet(b *testing.B) {
	benchSets(b, func(b *testing.B, ids []uint32, n int) {
		var h ContainerHist
		dst := make([]uint32, 0, EncodeSetBound(WireHybrid, n, len(ids)))
		for i := 0; i < b.N; i++ {
			dst = AppendEncodeSet(dst[:0], ids, uint32(n), n, WireHybrid, &h)
		}
	})
}

// BenchmarkDecodeSet times AppendDecode of the hybrid-mode payloads into
// a reused buffer: 0 allocs/op.
func BenchmarkDecodeSet(b *testing.B) {
	benchSets(b, func(b *testing.B, ids []uint32, n int) {
		buf := EncodeSet(ids, uint32(n), n, WireHybrid)
		dst := make([]uint32, 0, len(ids))
		for i := 0; i < b.N; i++ {
			dst = AppendDecode(dst[:0], buf)
		}
	})
}
