package frontier

import (
	"math/rand"
	"reflect"
	"slices"
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

func builders() map[string]func(lo uint32, n int) Frontier {
	return map[string]func(lo uint32, n int) Frontier{
		"sparse":   func(lo uint32, n int) Frontier { return NewSparse(lo, n) },
		"dense":    func(lo uint32, n int) Frontier { return NewDense(lo, n) },
		"adaptive": func(lo uint32, n int) Frontier { return NewAdaptive(lo, n, 0) },
	}
}

func TestFrontierImplementations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, build := range builders() {
		lo, n := uint32(1000), 500
		want := randSet(rng, lo, n, 300)
		f := build(lo, n)
		// Insert in shuffled order with duplicates.
		perm := rng.Perm(len(want))
		for _, i := range perm {
			f.Add(want[i])
			f.Add(want[i]) // duplicate must be a no-op
		}
		if f.Len() != len(want) {
			t.Fatalf("%s: Len=%d want %d", name, f.Len(), len(want))
		}
		if got := f.Vertices(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Vertices mismatch", name)
		}
		var iter []uint32
		f.Iterate(func(v uint32) { iter = append(iter, v) })
		if !reflect.DeepEqual(iter, want) {
			t.Fatalf("%s: Iterate mismatch", name)
		}
		for trial := 0; trial < 100; trial++ {
			v := lo + uint32(rng.Intn(n))
			inSet := false
			for _, w := range want {
				if w == v {
					inSet = true
					break
				}
			}
			if f.Has(v) != inSet {
				t.Fatalf("%s: Has(%d)=%v want %v", name, v, f.Has(v), inSet)
			}
		}
		glo, gn := f.Universe()
		if glo != lo || gn != n {
			t.Fatalf("%s: Universe=(%d,%d) want (%d,%d)", name, glo, gn, lo, n)
		}
	}
}

func TestSparseDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		lo := uint32(rng.Intn(10000))
		n := 1 + rng.Intn(400)
		want := randSet(rng, lo, n, rng.Intn(2*n))
		s := NewSparseFrom(lo, n, want)
		d := ToDense(s)
		if d.Len() != len(want) || !reflect.DeepEqual(d.Vertices(), want) {
			t.Fatalf("trial %d: sparse→dense mismatch", trial)
		}
		s2 := ToSparse(d)
		if !reflect.DeepEqual(s2.Vertices(), want) {
			t.Fatalf("trial %d: dense→sparse mismatch", trial)
		}
		// Identity conversions return the same object.
		if ToDense(d) != d || ToSparse(s) != s {
			t.Fatal("identity conversion allocated")
		}
	}
}

func TestAdaptiveSwitchBoundary(t *testing.T) {
	// occupancy 0.25 of 128 = limit 32: the 32nd insert stays sparse,
	// the 33rd flips to dense.
	a := NewAdaptive(0, 128, 0.25)
	for i := 0; i < 32; i++ {
		a.Add(uint32(i))
	}
	if a.Kind() != KindSparse {
		t.Fatalf("at limit: Kind=%v want sparse", a.Kind())
	}
	a.Add(32)
	if a.Kind() != KindDense {
		t.Fatalf("past limit: Kind=%v want dense", a.Kind())
	}
	if a.Len() != 33 || !a.Has(0) || !a.Has(32) || a.Has(33) {
		t.Fatal("membership lost across the representation switch")
	}

	// occupancy >= 1 never switches, even when out-of-order duplicate
	// inserts inflate the raw backing slice past the limit — the switch
	// decision counts distinct members.
	full := NewAdaptive(0, 16, 1)
	for round := 0; round < 3; round++ {
		for i := 15; i >= 0; i-- {
			full.Add(uint32(i))
		}
	}
	if full.Kind() != KindSparse {
		t.Fatal("occupancy 1 should pin the frontier sparse")
	}
	if full.Len() != 16 {
		t.Fatalf("Len=%d want 16", full.Len())
	}

	// A tiny occupancy clamps the limit to 1: second distinct insert
	// switches.
	tiny := NewAdaptive(0, 1000, 1e-9)
	tiny.Add(5)
	if tiny.Kind() != KindSparse {
		t.Fatal("first insert should not switch")
	}
	tiny.Add(6)
	if tiny.Kind() != KindDense {
		t.Fatal("second insert should switch at the clamped limit")
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

func TestUnionMatchesLocalindex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lo, n := uint32(0), 512
	for trial := 0; trial < 30; trial++ {
		a := randSet(rng, lo, n, rng.Intn(300))
		b := randSet(rng, lo, n, rng.Intn(300))
		want, _ := localindex.UnionSorted(a, b)

		// Word-level OR of wire bitmaps.
		wa := IDsToBits(a, lo, n)
		OrBits(wa, IDsToBits(b, lo, n))
		if got := BitsToIDs(wa, lo); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: OrBits union mismatch", trial)
		}
		if CountBits(wa) != len(want) {
			t.Fatalf("trial %d: CountBits=%d want %d", trial, CountBits(wa), len(want))
		}

		// Dense.Or and the generic Union helper.
		da, db := NewDense(lo, n), NewDense(lo, n)
		for _, v := range a {
			da.Add(v)
		}
		for _, v := range b {
			db.Add(v)
		}
		da.Or(db)
		if !reflect.DeepEqual(da.Vertices(), want) || da.Len() != len(want) {
			t.Fatalf("trial %d: Dense.Or mismatch", trial)
		}
		sp := NewSparseFrom(lo, n, a)
		Union(sp, db)
		if !reflect.DeepEqual(sp.Vertices(), want) {
			t.Fatalf("trial %d: Union(sparse, dense) mismatch", trial)
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
	// Bits() agrees between representations.
	s := NewSparseFrom(100, 70, []uint32{100, 131, 132, 169})
	d := ToDense(s)
	if !reflect.DeepEqual(Bits(s), Bits(d)) {
		t.Fatal("Bits(sparse) != Bits(dense)")
	}
	if !reflect.DeepEqual(BitsToIDs(Bits(s), 100), s.Vertices()) {
		t.Fatal("Bits round trip failed")
	}
}

func TestKindStrings(t *testing.T) {
	if KindSparse.String() != "sparse" || KindDense.String() != "dense" {
		t.Fatal("Kind strings changed")
	}
	for mode, want := range map[WireMode]string{WireSparse: "sparse", WireDense: "dense", WireAuto: "auto", WireHybrid: "hybrid"} {
		if mode.String() != want {
			t.Fatalf("WireMode %d string %q want %q", int(mode), mode.String(), want)
		}
	}
}
