package frontier

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// enumerateBits is the bits codec without its bitmap fast path: every
// chunk's members are enumerated and costed by encodeChunk, as the codec
// did before it learned to copy the chunks a bitmap provably wins.
func enumerateBits(words []uint32, n int, mode WireMode, h *ContainerHist) []uint32 {
	if mode != WireHybrid || n == 0 {
		return words
	}
	var hist ContainerHist
	var stream []uint32
	for c := 0; c < numChunks(n); c++ {
		span := min(n-c*ChunkSpan, ChunkSpan)
		wlo := c * (ChunkSpan / 32)
		var offs []uint32
		for wi, x := range words[wlo : wlo+BitWords(span)] {
			for ; x != 0; x &= x - 1 {
				offs = append(offs, uint32(wi)*32+uint32(bits.TrailingZeros32(x)))
			}
		}
		stream = encodeChunk(stream, offs, span, &hist)
	}
	if len(stream) >= len(words) {
		h.DensePayloads++
		return words
	}
	hist.HybridPayloads++
	h.Add(hist)
	return stream
}

// checkBitsLikeEnumeration requires EncodeBits to produce the stream and
// histogram of the enumeration for bitmap w over [0, n).
func checkBitsLikeEnumeration(t *testing.T, label string, w []uint32, n int) {
	t.Helper()
	var got, want ContainerHist
	enc := EncodeBits(w, n, WireHybrid, &got)
	ref := enumerateBits(w, n, WireHybrid, &want)
	if !slices.Equal(enc, ref) {
		t.Fatalf("%s: EncodeBits stream (%d words) differs from the enumeration's (%d words)", label, len(enc), len(ref))
	}
	if got != want {
		t.Fatalf("%s: histogram %+v, enumeration %+v", label, got, want)
	}
}

// chunkPair is the universe of chunkOf's bitmaps.
const chunkPair = 2 * ChunkSpan

// chunkOf returns a bitmap over [0, chunkPair) holding offs in its first
// chunk; the second stays empty, so a chunk stream still beats the raw
// bitmap when the first chunk ships as a bitmap.
func chunkOf(offs []int) []uint32 {
	w := NewBits(chunkPair)
	for _, off := range offs {
		SetBit(w, uint32(off))
	}
	return w
}

// TestBitmapFastPathMatchesEnumeration: copying a chunk's words when a
// bitmap provably wins changes no stream word and no histogram count, on
// the shapes at the edges of that proof — empty and full bitmaps, single
// runs, every occupancy step of 1/64, chunks on each side of where the
// list, the runs and the packed container's width stop beating the
// bitmap, and a last chunk that ends inside a word.
func TestBitmapFastPathMatchesEnumeration(t *testing.T) {
	for _, n := range []int{1, 31, 33, 4096, 4097, 3*ChunkSpan + 77} {
		zero, one := NewBits(n), NewBits(n)
		for i := 0; i < n; i++ {
			SetBit(one, uint32(i))
		}
		checkBitsLikeEnumeration(t, fmt.Sprintf("n %d all zero", n), zero, n)
		checkBitsLikeEnumeration(t, fmt.Sprintf("n %d all one", n), one, n)
		for _, run := range [][2]int{{0, n}, {n / 3, n / 2}, {n - 1, n}, {5, min(5+520, n)}, {n / 4, min(n/4+4000, n)}} {
			w := NewBits(n)
			for i := run[0]; i < run[1]; i++ {
				SetBit(w, uint32(i))
			}
			checkBitsLikeEnumeration(t, fmt.Sprintf("n %d run [%d, %d)", n, run[0], run[1]), w, n)
		}
	}

	rng := rand.New(rand.NewSource(36))
	const nRand = 2*ChunkSpan + 1000
	for k := 1; k < 64; k++ {
		w := NewBits(nRand)
		for i := 0; i < nRand; i++ {
			if rng.Intn(64) < k {
				SetBit(w, uint32(i))
			}
		}
		checkBitsLikeEnumeration(t, fmt.Sprintf("occupancy %d/64", k), w, nRand)
	}

	// List vs bitmap: isolated members (so the runs lose) two apart, with
	// one gap wide enough that the packed container loses too. The list's
	// least cost passes the bitmap's 128 words at 511 members; at 510 the
	// wide gap's two-byte delta already tips it, which only the
	// enumeration sees.
	for count := 508; count <= 512; count++ {
		for _, gap := range []int{300, 1000} {
			var offs []int
			for i := 0; i < count; i++ {
				off := 2 * i
				if i >= count/2 {
					off += gap
				}
				offs = append(offs, off)
			}
			checkBitsLikeEnumeration(t, fmt.Sprintf("%d members gap %d", count, gap), chunkOf(offs), chunkPair)
		}
	}
	// Runs vs bitmap: runs of 7 every 15 ids — the packed container at
	// width 4 and the list lose; the runs' least cost reaches 128 words
	// between 255 and 256 runs.
	for nruns := 254; nruns <= 257; nruns++ {
		var offs []int
		for r := 0; r < nruns; r++ {
			for i := 0; i < 7; i++ {
				offs = append(offs, 15*r+i)
			}
		}
		checkBitsLikeEnumeration(t, fmt.Sprintf("%d runs", nruns), chunkOf(offs), chunkPair)
	}
	// Packed vs bitmap: 900 members four apart cost 114 packed words at
	// width 4 and 142 at width 5, so the largest gap stepping from 15 to
	// 16 hands the chunk to the bitmap.
	for _, maxDelta := range []int{7, 8, 15, 16, 31, 32} {
		offs := []int{0}
		for i := 1; i < 900; i++ {
			d := 3
			if i == 450 {
				d = maxDelta
			}
			offs = append(offs, offs[i-1]+d+1)
		}
		checkBitsLikeEnumeration(t, fmt.Sprintf("packed max gap %d", maxDelta), chunkOf(offs), chunkPair)
	}

	// A last chunk of 77 ids, dense and sparse.
	for _, k := range []int{1, 40, 63} {
		n := ChunkSpan + 77
		w := NewBits(n)
		for i := 0; i < n; i++ {
			if rng.Intn(64) < k {
				SetBit(w, uint32(i))
			}
		}
		checkBitsLikeEnumeration(t, fmt.Sprintf("partial last chunk %d/64", k), w, n)
	}
}

// BenchmarkEncodeBits encodes one 4x4 rank's owned bitmap of the lab's
// 100,000-vertex graph (6,250 ids: a full chunk and a partial one) at a
// sparse, a mid and a dense occupancy.
func BenchmarkEncodeBits(b *testing.B) {
	const n = 100000 / 16
	for _, pct := range []int{3, 25, 60} {
		rng := rand.New(rand.NewSource(int64(pct)))
		w := NewBits(n)
		for i := 0; i < n; i++ {
			if rng.Intn(100) < pct {
				SetBit(w, uint32(i))
			}
		}
		b.Run(fmt.Sprintf("occupancy=%d%%", pct), func(b *testing.B) {
			var h ContainerHist
			for i := 0; i < b.N; i++ {
				EncodeBits(w, n, WireHybrid, &h)
			}
		})
	}
}
