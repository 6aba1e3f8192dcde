package frontier

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/localindex"
)

// randSet returns a sorted duplicate-free set of ids from [lo, lo+n).
func randSet(rng *rand.Rand, lo uint32, n, count int) []uint32 {
	raw := make([]uint32, count)
	for i := range raw {
		raw[i] = lo + uint32(rng.Intn(n))
	}
	out, _ := localindex.SortSet(raw)
	return out
}

// TestFrontierImplementations: the one set type holds the same members,
// in the same order, below and above its switch to a bitmap, whatever
// order and duplication they arrive in.
func TestFrontierImplementations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lo, n := uint32(1000), 5000
	for _, count := range []int{0, 1, 100, 3000} {
		want := randSet(rng, lo, n, count)
		f := New(lo, n)
		// Insert in shuffled order with duplicates.
		for _, i := range rng.Perm(len(want)) {
			f.Add(want[i])
			f.Add(want[i]) // duplicate must be a no-op
		}
		if f.Len() != len(want) {
			t.Fatalf("%d ids: Len=%d want %d", count, f.Len(), len(want))
		}
		if got := f.Vertices(); !slices.Equal(got, want) {
			t.Fatalf("%d ids: Vertices mismatch", count)
		}
		var iter []uint32
		f.Iterate(func(v uint32) { iter = append(iter, v) })
		if !slices.Equal(iter, want) {
			t.Fatalf("%d ids: Iterate mismatch", count)
		}
		if !reflect.DeepEqual(f.Bits(), IDsToBits(want, lo, n)) {
			t.Fatalf("%d ids: Bits mismatch", count)
		}
		if glo, gn := f.Universe(); glo != lo || gn != n {
			t.Fatalf("%d ids: Universe=(%d,%d) want (%d,%d)", count, glo, gn, lo, n)
		}
		if dense := len(want) > n/32; f.isDense != dense {
			t.Fatalf("%d ids: dense=%v want %v", count, f.isDense, dense)
		}
	}
}

// TestSparseDenseRoundTrip: a set's ids and its bitmap convert into each
// other without loss in either form, and Reset returns the set to the
// sparse form.
func TestSparseDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		lo := uint32(rng.Intn(10000))
		n := 1 + rng.Intn(400)
		want := randSet(rng, lo, n, rng.Intn(2*n))
		f := New(lo, n)
		for _, i := range rng.Perm(len(want)) {
			f.Add(want[i])
		}
		bits := f.Bits()
		if !reflect.DeepEqual(bits, IDsToBits(want, lo, n)) || CountBits(bits) != len(want) {
			t.Fatalf("trial %d: ids→bitmap mismatch", trial)
		}
		if got := appendBitsIDs(nil, bits, lo); !slices.Equal(got, want) {
			t.Fatalf("trial %d: bitmap→ids mismatch", trial)
		}
		if !slices.Equal(f.Vertices(), want) {
			t.Fatalf("trial %d: Vertices mismatch (dense=%v)", trial, f.isDense)
		}
		f.Reset()
		f.Add(lo)
		if f.isDense || !slices.Equal(f.Vertices(), []uint32{lo}) {
			t.Fatalf("trial %d: after Reset dense=%v members %v", trial, f.isDense, f.Vertices())
		}
	}
}

func TestAdaptiveSwitchBoundary(t *testing.T) {
	// 1/32 of 1024 = limit 32: the 32nd insert stays sparse, the 33rd
	// switches to the bitmap.
	a := New(0, 1024)
	for i := 0; i < 32; i++ {
		a.Add(uint32(i))
	}
	if a.isDense {
		t.Fatal("at limit: switched to the bitmap")
	}
	a.Add(32)
	if !a.isDense {
		t.Fatal("past limit: still sparse")
	}
	if a.Len() != 33 || !slices.Equal(a.Vertices(), seqIDs(0, 33)) {
		t.Fatal("membership lost across the switch")
	}

	// Out-of-order duplicate inserts inflate the raw queue past the
	// limit without switching: the switch decision counts distinct
	// members.
	dup := New(0, 1024)
	for round := 0; round < 3; round++ {
		for i := 31; i >= 0; i-- {
			dup.Add(uint32(i))
		}
	}
	if dup.isDense || dup.Len() != 32 {
		t.Fatalf("duplicates: dense=%v Len=%d, want sparse with 32", dup.isDense, dup.Len())
	}

	// A universe under 32 ids has n/32 = 0, which the clamp raises to 1:
	// the first insert stays sparse only because of it, the second
	// distinct insert switches.
	tiny := New(0, 20)
	tiny.Add(5)
	if tiny.isDense {
		t.Fatal("first insert should not switch")
	}
	tiny.Add(6)
	if !tiny.isDense {
		t.Fatal("second insert should switch at the clamped limit")
	}
}

// TestFrontierReset: Reset empties the set back into the sparse form and
// keeps the bitmap, cleared, for the next switch.
func TestFrontierReset(t *testing.T) {
	a := New(100, 640)
	for v := uint32(100); v < 140; v++ {
		a.Add(v)
	}
	bitmap := a.dense
	if bitmap == nil {
		t.Fatal("40 of 640 ids did not switch to the bitmap")
	}
	a.Reset()
	if a.isDense || a.Len() != 0 || len(a.Vertices()) != 0 {
		t.Fatal("Reset left members behind")
	}
	for v := uint32(739); v >= 700; v-- {
		a.Add(v)
	}
	if a.dense != bitmap {
		t.Fatal("the bitmap was rebuilt after Reset")
	}
	if a.Len() != 40 || !slices.Equal(a.Vertices(), seqIDs(700, 40)) {
		t.Fatalf("after Reset: %v", a.Vertices())
	}
}

// TestFrontierRejectsOutOfUniverse: Add, and the hybrid encoder's chunk
// walk, panic on an id outside the universe rather than drop it.
func TestFrontierRejectsOutOfUniverse(t *testing.T) {
	for _, v := range []uint32{99, 164} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) on [100, 164) did not panic", v)
				}
			}()
			New(100, 64).Add(v)
		}()
	}
	const n = 20 * ChunkSpan
	for _, bad := range []uint32{0, ChunkSpan + n} {
		ids := append(seqIDs(ChunkSpan, n/2), bad)
		slices.Sort(ids)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("hybrid encode of id %d on [%d, %d) did not panic", bad, ChunkSpan, ChunkSpan+n)
				}
			}()
			EncodeSetStats(ids, ChunkSpan, n, WireHybrid, nil)
		}()
	}
}

func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	full := make([]uint32, 37)
	for i := range full {
		full[i] = 70 + uint32(i)
	}
	cases := []struct {
		lo  uint32
		n   int
		ids []uint32
	}{
		{0, 64, nil},
		{0, 64, []uint32{0, 63}},
		{70, 37, full},
		{1000, 333, randSet(rng, 1000, 333, 50)},
		{1000, 333, randSet(rng, 1000, 333, 600)},
		{5, 1, []uint32{5}},
	}
	for i, c := range cases {
		for _, mode := range allWireModes {
			buf := EncodeSet(c.ids, c.lo, c.n, mode)
			got := Decode(buf)
			want := c.ids
			if want == nil {
				want = []uint32{}
			}
			if len(got) != len(want) {
				t.Fatalf("case %d mode %v: decoded %d ids, want %d", i, mode, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("case %d mode %v: id[%d]=%d want %d", i, mode, j, got[j], want[j])
				}
			}
			// AppendDecode extends a staging buffer with the same ids and
			// never aliases the payload, raw lists included.
			staged := AppendDecode([]uint32{7}, buf)
			if !slices.Equal(staged[1:], want) || staged[0] != 7 {
				t.Fatalf("case %d mode %v: AppendDecode gave %v, want 7 then %v", i, mode, staged, want)
			}
			for j := range buf {
				buf[j] = ^buf[j]
			}
			if !slices.Equal(staged[1:], want) {
				t.Fatalf("case %d mode %v: AppendDecode aliased its payload", i, mode)
			}
		}
		// Auto picks the smaller of the two encodings.
		auto := len(EncodeSet(c.ids, c.lo, c.n, WireAuto))
		sparse := len(EncodeSet(c.ids, c.lo, c.n, WireSparse))
		dense := len(EncodeSet(c.ids, c.lo, c.n, WireDense))
		best := sparse
		if dense < best {
			best = dense
		}
		if auto != best {
			t.Fatalf("case %d: auto=%d words, best=%d (sparse %d dense %d)", i, auto, best, sparse, dense)
		}
	}
}

func TestWireRawListsCostNothing(t *testing.T) {
	// The sparse arm of the wire format is the raw id list: zero words
	// of overhead over the legacy format, and Decode passes unencoded
	// payloads through untouched — so WireAuto can never move more
	// words than plain lists.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(500)
		ids := randSet(rng, 0, n, rng.Intn(2*n))
		auto := EncodeSet(ids, 0, n, WireAuto)
		if len(auto) > len(ids) {
			t.Fatalf("trial %d: auto encoding %d words exceeds raw list %d", trial, len(auto), len(ids))
		}
		if got := Decode(ids); len(ids) > 0 && &got[0] != &ids[0] {
			t.Fatal("Decode copied a raw list")
		}
	}
}

// TestUnionMatchesLocalindex: adding two sets into one frontier, and
// OR-ing their bitmaps word by word, both give localindex's sorted union.
func TestUnionMatchesLocalindex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lo, n := uint32(0), 512
	f := New(lo, n)
	for trial := 0; trial < 30; trial++ {
		a := randSet(rng, lo, n, rng.Intn(300))
		b := randSet(rng, lo, n, rng.Intn(300))
		want, _ := localindex.UnionSorted(a, b)

		f.Reset()
		for _, v := range a {
			f.Add(v)
		}
		for _, v := range b {
			f.Add(v)
		}
		if f.Len() != len(want) || !slices.Equal(f.Vertices(), want) {
			t.Fatalf("trial %d: frontier union mismatch (dense=%v)", trial, f.isDense)
		}

		wa, wb := IDsToBits(a, lo, n), IDsToBits(b, lo, n)
		for i := range wa {
			wa[i] |= wb[i]
		}
		if !reflect.DeepEqual(wa, f.Bits()) {
			t.Fatalf("trial %d: OR of bitmaps differs from the union's Bits", trial)
		}
		if got := appendBitsIDs(nil, wa, lo); !slices.Equal(got, want) {
			t.Fatalf("trial %d: OR-ed bitmap union mismatch", trial)
		}
		if CountBits(wa) != len(want) {
			t.Fatalf("trial %d: CountBits=%d want %d", trial, CountBits(wa), len(want))
		}
	}
}

func TestBitsHelpers(t *testing.T) {
	w := NewBits(70)
	if len(w) != 3 {
		t.Fatalf("BitWords(70)=%d want 3", len(w))
	}
	for _, i := range []uint32{0, 31, 32, 69} {
		SetBit(w, i)
	}
	var got []uint32
	IterateBits(w, func(i uint32) { got = append(got, i) })
	if !reflect.DeepEqual(got, []uint32{0, 31, 32, 69}) {
		t.Fatalf("IterateBits=%v", got)
	}
	if TestBit(w, 1) || !TestBit(w, 69) {
		t.Fatal("TestBit wrong")
	}
	if CountBits(w) != 4 {
		t.Fatalf("CountBits=%d want 4", CountBits(w))
	}
	if ids := appendBitsIDs(nil, w, 100); !reflect.DeepEqual(ids, []uint32{100, 131, 132, 169}) {
		t.Fatalf("appendBitsIDs=%v", ids)
	}
}

// SetBitAtomic under contention on shared words must lose no updates;
// this is the 2D bottom-up claims-bitmap regression (run with -race).
// Eight goroutines set bits from interleaved 7-bit chunks, so every word
// is written by several of them.
func TestSetBitAtomicSharedWords(t *testing.T) {
	const n, grain, writers = 1 << 16, 7, 8
	w := NewBits(n)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := g * grain; lo < n; lo += writers * grain {
				for i := lo; i < min(lo+grain, n); i++ {
					if i%3 != 0 {
						SetBitAtomic(w, uint32(i))
					}
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if got, want := TestBit(w, uint32(i)), i%3 != 0; got != want {
			t.Fatalf("bit %d = %v, want %v (lost update)", i, got, want)
		}
	}
}

func TestWireModeStrings(t *testing.T) {
	for mode, want := range map[WireMode]string{WireSparse: "sparse", WireDense: "dense", WireAuto: "auto", WireHybrid: "hybrid"} {
		if mode.String() != want {
			t.Fatalf("WireMode %d string %q want %q", int(mode), mode.String(), want)
		}
	}
}
