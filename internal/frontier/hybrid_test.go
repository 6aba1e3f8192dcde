package frontier

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/localindex"
)

var allWireModes = []WireMode{WireSparse, WireDense, WireAuto, WireHybrid}

// clusteredSet builds a set of runs of consecutive ids separated by
// gaps — the shape contiguous-block partitioning produces.
func clusteredSet(rng *rand.Rand, lo uint32, n int) []uint32 {
	var ids []uint32
	v := int(lo) + rng.Intn(16)
	hi := int(lo) + n
	for v < hi {
		runLen := 1 + rng.Intn(40)
		for i := 0; i < runLen && v < hi; i++ {
			ids = append(ids, uint32(v))
			v++
		}
		v += 1 + rng.Intn(200)
	}
	return ids
}

func fullSet(lo uint32, n int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = lo + uint32(i)
	}
	return ids
}

// TestHybridSetRoundTrip: EncodeSet∘Decode is the identity for every
// mode on random, clustered, empty, full, and single-id sets over
// universes straddling chunk boundaries.
func TestHybridSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type tc struct {
		name string
		lo   uint32
		n    int
		ids  []uint32
	}
	cases := []tc{
		{"empty", 100, 10000, nil},
		{"single", 5000, 9000, []uint32{9123}},
		{"full-small", 7, 130, fullSet(7, 130)},
		{"full-chunked", 0, 3*ChunkSpan + 77, fullSet(0, 3*ChunkSpan+77)},
		{"chunk-edges", 0, 2 * ChunkSpan, []uint32{0, ChunkSpan - 1, ChunkSpan, 2*ChunkSpan - 1}},
	}
	for trial := 0; trial < 12; trial++ {
		lo := uint32(rng.Intn(100000))
		n := 1 + rng.Intn(5*ChunkSpan)
		cases = append(cases,
			tc{"random", lo, n, randSet(rng, lo, n, rng.Intn(2*n))},
			tc{"clustered", lo, n, clusteredSet(rng, lo, n)},
		)
	}
	for _, c := range cases {
		for _, mode := range allWireModes {
			var h ContainerHist
			buf := EncodeSetStats(c.ids, c.lo, c.n, mode, &h)
			got := Decode(buf)
			if len(got) != len(c.ids) {
				t.Fatalf("%s lo=%d n=%d mode=%v: decoded %d ids, want %d",
					c.name, c.lo, c.n, mode, len(got), len(c.ids))
			}
			for j := range c.ids {
				if got[j] != c.ids[j] {
					t.Fatalf("%s mode=%v: id[%d]=%d want %d", c.name, mode, j, got[j], c.ids[j])
				}
			}
			if h.Payloads() != 1 {
				t.Fatalf("%s mode=%v: histogram recorded %d payloads", c.name, mode, h.Payloads())
			}
		}
	}
}

// TestHybridNeverExceedsAuto: per payload, the hybrid encoding is no
// longer than the best of the raw list and the dense bitmap — i.e.
// hybrid ≤ min(sparse, dense) with the chunk headers already included,
// so wire=hybrid can never move more words than wire=auto.
func TestHybridNeverExceedsAuto(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		lo := uint32(rng.Intn(10000))
		n := 1 + rng.Intn(3*ChunkSpan)
		var ids []uint32
		switch trial % 3 {
		case 0:
			ids = randSet(rng, lo, n, rng.Intn(2*n))
		case 1:
			ids = clusteredSet(rng, lo, n)
		case 2:
			ids = fullSet(lo, n)
		}
		hyb := len(EncodeSet(ids, lo, n, WireHybrid))
		auto := len(EncodeSet(ids, lo, n, WireAuto))
		sparse := len(ids)
		dense := 3 + BitWords(n)
		best := sparse
		if dense < best {
			best = dense
		}
		if hyb > best {
			t.Fatalf("trial %d (n=%d, %d ids): hybrid %d words exceeds min(sparse %d, dense %d)",
				trial, n, len(ids), hyb, sparse, dense)
		}
		if hyb > auto {
			t.Fatalf("trial %d: hybrid %d words exceeds auto %d", trial, hyb, auto)
		}
	}
}

// TestHybridCompressesMidOccupancy: in the mid-occupancy regime
// (clustered or a few percent dense) the chunk containers beat both
// legacy forms by a real margin — the regime motivating the codec.
func TestHybridCompressesMidOccupancy(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 4 * ChunkSpan
	// ~3% uniform occupancy: ids gap ~32, one varint byte per id.
	ids := randSet(rng, 0, n, n/32)
	hyb := len(EncodeSet(ids, 0, n, WireHybrid))
	auto := len(EncodeSet(ids, 0, n, WireAuto))
	if hyb*2 > auto {
		t.Fatalf("mid-occupancy: hybrid %d words vs auto %d — expected ≥ 2x reduction", hyb, auto)
	}
	// Clustered runs: extents collapse to a few bytes per run.
	cl := clusteredSet(rng, 0, n)
	hyb = len(EncodeSet(cl, 0, n, WireHybrid))
	auto = len(EncodeSet(cl, 0, n, WireAuto))
	if hyb*2 > auto {
		t.Fatalf("clustered: hybrid %d words vs auto %d — expected ≥ 2x reduction", hyb, auto)
	}
}

// TestEncodeSetDoesNotAlias: the raw-list arm used to alias the
// caller's slice, corrupting payloads mutated while in flight. Every
// encode now owns its buffer.
func TestEncodeSetDoesNotAlias(t *testing.T) {
	for _, mode := range allWireModes {
		ids := []uint32{3, 9, 17, 40}
		want := append([]uint32(nil), ids...)
		buf := EncodeSetStats(ids, 0, 64, mode, nil)
		for i := range ids {
			ids[i] = 0 // mutate "in flight"
		}
		if got := Decode(buf); !reflect.DeepEqual(got, want) {
			t.Fatalf("mode %v: in-flight mutation corrupted the payload: got %v want %v", mode, got, want)
		}
	}
	// Nor may a sparse frontier's encode alias its queue.
	f := New(0, 64)
	for _, v := range []uint32{1, 2, 50} {
		f.Add(v)
	}
	buf := EncodeFrontier(f, WireAuto, nil)
	f.Add(7)
	if got := Decode(buf); !reflect.DeepEqual(got, []uint32{1, 2, 50}) {
		t.Fatalf("EncodeFrontier aliased live frontier storage: got %v", got)
	}
}

// TestEncodeFrontierHybridFastPath: a frontier's encode — a dense one's
// built straight from its bitmap words — must be
// byte-identical to the id-list path, histogram included, for every
// occupancy and wire mode.
func TestEncodeFrontierHybridFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 30; trial++ {
		lo := uint32(rng.Intn(5000))
		n := 1 + rng.Intn(2*ChunkSpan)
		if trial%5 == 4 {
			n = 12 * ChunkSpan // a many-chunk universe
		}
		var ids []uint32
		switch trial % 4 {
		case 0:
			ids = randSet(rng, lo, n, rng.Intn(n+1))
		case 1:
			ids = clusteredSet(rng, lo, n)
		case 2:
			ids = fullSet(lo, n)
		case 3: // empty
		}
		f := New(lo, n)
		for _, v := range ids {
			f.Add(v)
		}
		for _, mode := range allWireModes {
			var hs ContainerHist
			slow := EncodeSetStats(ids, lo, n, mode, &hs)
			var hf ContainerHist
			fast := EncodeFrontier(f, mode, &hf)
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("trial %d (n=%d, %d ids, dense=%v) mode %v: frontier encode diverged (%d vs %d words)",
					trial, n, len(ids), f.isDense, mode, len(fast), len(slow))
			}
			if hf != hs {
				t.Fatalf("trial %d mode %v: frontier histogram %+v != set-path %+v", trial, mode, hf, hs)
			}
		}
	}
}

// manyChunkSets returns deterministic test sets across the occupancy
// spectrum over a 40-chunk universe.
func manyChunkSets(t *testing.T) (int, [][]uint32) {
	t.Helper()
	const n = 40 * ChunkSpan
	rng := rand.New(rand.NewSource(7))
	sets := [][]uint32{nil, {0}, {uint32(n - 1)}}
	for _, frac := range []float64{0.001, 0.01, 0.12, 0.5, 0.95} {
		var ids []uint32
		for v := 0; v < n; v++ {
			if rng.Float64() < frac {
				ids = append(ids, uint32(v))
			}
		}
		sets = append(sets, ids)
	}
	// A runs-heavy set and a full universe.
	var runs []uint32
	for v := 0; v < n; v += 900 {
		for j := 0; j < 400 && v+j < n; j++ {
			runs = append(runs, uint32(v+j))
		}
	}
	full := make([]uint32, n)
	for v := range full {
		full[v] = uint32(v)
	}
	return n, append(sets, runs, full)
}

// AppendEncodeSet must append exactly what EncodeSetStats returns —
// same payload, same histogram — under every wire mode, after any
// prefix, and into capacity reserved with EncodeSetBound without
// reallocating.
func TestAppendEncodeSetMatchesEncode(t *testing.T) {
	n, sets := manyChunkSets(t)
	sets = append(sets, []uint32{3, 9, 4000}, seqIDs(100, 300))
	for si, ids := range sets {
		for _, mode := range []WireMode{WireSparse, WireDense, WireAuto, WireHybrid} {
			var hWant, hGot ContainerHist
			want := EncodeSetStats(ids, 0, n, mode, &hWant)
			prefix := []uint32{0xabc, 0xdef}
			buf := make([]uint32, len(prefix), len(prefix)+EncodeSetBound(mode, n, len(ids)))
			copy(buf, prefix)
			got := AppendEncodeSet(buf, ids, 0, n, mode, &hGot)
			if !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], want) {
				t.Fatalf("set %d %v: appended payload differs from EncodeSetStats", si, mode)
			}
			if hGot != hWant {
				t.Fatalf("set %d %v: hist %+v != %+v", si, mode, hGot, hWant)
			}
			if &got[0] != &buf[0] {
				t.Fatalf("set %d %v: reallocated past the reserved EncodeSetBound", si, mode)
			}
		}
	}
}

// checkBitsLikeSet requires AppendEncodeBits, for the wire bitmap w over
// [0, n) from lo, to append after a two-word head what AppendEncodeSet
// appends for its ids, with the same histogram, under every wire mode,
// into capacity reserved with EncodeSetBound without reallocating; and
// DecodeSetBits to read every payload back as w.
func checkBitsLikeSet(t *testing.T, label string, w []uint32, lo uint32, n int) {
	t.Helper()
	ids := appendBitsIDs(nil, w, lo)
	var scratch []uint32
	for _, mode := range allWireModes {
		var hWant, hGot ContainerHist
		head := []uint32{0xabc, 0xdef}
		want := AppendEncodeSet(slices.Clone(head), ids, lo, n, mode, &hWant)
		buf := make([]uint32, len(head), len(head)+EncodeSetBound(mode, n, len(ids)))
		copy(buf, head)
		got := AppendEncodeBits(buf, w, len(ids), lo, n, mode, &hGot)
		if !slices.Equal(got, want) || hGot != hWant {
			t.Fatalf("%s %v: AppendEncodeBits (%d words, %+v) differs from AppendEncodeSet (%d words, %+v)",
				label, mode, len(got), hGot, len(want), hWant)
		}
		if &got[0] != &buf[0] {
			t.Fatalf("%s %v: reallocated past the reserved EncodeSetBound", label, mode)
		}
		if set, err := DecodeSetBits(got[len(head):], &scratch, lo, n); err != nil || !slices.Equal(set, w) {
			t.Fatalf("%s %v: DecodeSetBits does not read the payload back", label, mode)
		}
	}
}

// TestAppendEncodeBitsMatchesSet: the bits encoder is the set encoder,
// word for word, on universes at and around the word and chunk widths,
// from empty to full.
func TestAppendEncodeBitsMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{1, 31, 32, 33, 1000, ChunkSpan, ChunkSpan + 1, 3*ChunkSpan + 5} {
		for _, frac := range []float64{0, 0.001, 0.01, 0.04, 0.2, 0.6, 1} {
			w := NewBits(n)
			for i := 0; i < n; i++ {
				if rng.Float64() < frac {
					SetBit(w, uint32(i))
				}
			}
			checkBitsLikeSet(t, fmt.Sprintf("n=%d frac=%v", n, frac), w, 77, n)
		}
		runs := NewBits(n) // long runs: the run-length containers
		for i := 0; i < n; i++ {
			if i/200%2 == 0 {
				SetBit(runs, uint32(i))
			}
		}
		checkBitsLikeSet(t, fmt.Sprintf("n=%d runs", n), runs, 0, n)
	}
}

// TestEncodeBitsRoundTrip: DecodeBits∘EncodeBits is the identity on
// wire bitmaps and never produces a longer payload than the raw words.
func TestEncodeBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(3*ChunkSpan)
		w := NewBits(n)
		count := rng.Intn(n)
		if trial%4 == 0 {
			count = 0
		}
		for i := 0; i < count; i++ {
			SetBit(w, uint32(rng.Intn(n)))
		}
		var h ContainerHist
		enc := EncodeBits(w, n, WireHybrid, &h)
		if len(enc) > len(w) {
			t.Fatalf("trial %d: EncodeBits grew the payload (%d > %d words)", trial, len(enc), len(w))
		}
		got := DecodeBits(enc, n)
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("trial %d: bits round trip mismatch", trial)
		}
		// Non-hybrid modes pass through untouched.
		if raw := EncodeBits(w, n, WireAuto, nil); len(raw) != len(w) {
			t.Fatalf("trial %d: WireAuto touched a bitmap payload", trial)
		}
	}
}

// TestContainerHistAccounting: the histogram sums payloads and chunk
// choices consistently and Sub inverts Add.
func TestContainerHistAccounting(t *testing.T) {
	var h ContainerHist
	n := 3 * ChunkSpan
	// Chunk 0 clustered (runs), chunk 1 empty, chunk 2 scattered (list).
	ids := append(fullSet(0, 600), 2*ChunkSpan+5, 2*ChunkSpan+900, 2*ChunkSpan+2000)
	buf := EncodeSetStats(ids, 0, n, WireHybrid, &h)
	if h.HybridPayloads != 1 || h.Payloads() != 1 {
		t.Fatalf("payload accounting wrong: %+v", h)
	}
	if h.EmptyChunks+h.ListChunks+h.BitmapChunks+h.RunChunks != int64(numChunks(n)) {
		t.Fatalf("chunk accounting wrong: %+v", h)
	}
	if h.RunChunks == 0 || h.ListChunks == 0 || h.EmptyChunks == 0 {
		t.Fatalf("expected runs+list+empty chunks, got %+v", h)
	}
	if !reflect.DeepEqual(Decode(buf), ids) {
		t.Fatal("mixed-container payload failed to round trip")
	}
	snap := h
	EncodeSetStats(ids, 0, n, WireHybrid, &h)
	if d := h.Sub(snap); !reflect.DeepEqual(d, snap) {
		t.Fatalf("Sub delta %+v != first-encode histogram %+v", d, snap)
	}
}

// FuzzHybridSetRoundTrip feeds arbitrary byte strings through a
// set-builder and asserts EncodeSet∘Decode = id for every wire mode.
func FuzzHybridSetRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(100), uint8(0))
	f.Add([]byte{1, 2, 3, 250, 250, 250}, uint16(1000), uint8(7))
	f.Add([]byte{0xff, 0x00, 0xaa, 0x55, 9, 9, 9, 9}, uint16(5000), uint8(200))
	f.Fuzz(func(t *testing.T, raw []byte, span uint16, lob uint8) {
		n := int(span) + 1
		lo := uint32(lob) * 1000
		// Interpret consecutive bytes as id deltas within the universe.
		set := make([]uint32, 0, len(raw))
		v := 0
		for _, b := range raw {
			v += int(b)
			set = append(set, lo+uint32(v%n))
		}
		ids, _ := localindex.SortSet(set)
		for _, mode := range allWireModes {
			buf := EncodeSet(ids, lo, n, mode)
			got := Decode(buf)
			if len(got) != len(ids) {
				t.Fatalf("mode %v: decoded %d ids, want %d", mode, len(got), len(ids))
			}
			for i := range ids {
				if got[i] != ids[i] {
					t.Fatalf("mode %v: id[%d]=%d want %d", mode, i, got[i], ids[i])
				}
			}
			if mode == WireHybrid && len(buf) > len(ids) && len(buf) > 3+BitWords(n) {
				t.Fatalf("hybrid payload %d words exceeds both fallbacks (raw %d, dense %d)",
					len(buf), len(ids), 3+BitWords(n))
			}
		}
	})
}

// FuzzHybridBitsRoundTrip feeds arbitrary bitmaps through the bits
// codec and asserts the round trip, the no-growth guarantee, and the
// stream and histogram of the enumerating codec (enumerateBits); and
// through the set encoder's bits form, which must match the id form
// (checkBitsLikeSet).
func FuzzHybridBitsRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(31))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint16(64))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 128}, uint16(4097))
	f.Fuzz(func(t *testing.T, raw []byte, span uint16) {
		n := int(span) + 1
		w := NewBits(n)
		for i, b := range raw {
			for j := 0; j < 8; j++ {
				if b&(1<<j) != 0 {
					bit := (i*8 + j) % n
					SetBit(w, uint32(bit))
				}
			}
		}
		checkBitsLikeEnumeration(t, "fuzz", w, n)
		checkBitsLikeSet(t, "fuzz", w, uint32(span), n)
		enc := EncodeBits(w, n, WireHybrid, nil)
		if len(enc) > len(w) {
			t.Fatalf("EncodeBits grew the payload (%d > %d words)", len(enc), len(w))
		}
		if got := DecodeBits(enc, n); !reflect.DeepEqual(got, w) {
			t.Fatal("bits round trip mismatch")
		}
	})
}
