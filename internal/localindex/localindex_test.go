package localindex

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestMapBasic(t *testing.T) {
	m := NewMap(4)
	if _, ok := m.Get(42); ok {
		t.Fatal("empty map reported a hit")
	}
	m.Put(42, 7)
	if v, ok := m.Get(42); !ok || v != 7 {
		t.Fatalf("Get(42) = %d,%v want 7,true", v, ok)
	}
	m.Put(42, 8) // overwrite
	if v, _ := m.Get(42); v != 8 {
		t.Fatalf("overwrite failed, got %d", v)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d want 1", m.Len())
	}
}

func TestMapZeroKey(t *testing.T) {
	m := NewMap(1)
	m.Put(0, 99)
	if v, ok := m.Get(0); !ok || v != 99 {
		t.Fatalf("zero key: got %d,%v", v, ok)
	}
}

func TestMapGrowth(t *testing.T) {
	m := NewMap(0)
	const n = 10000
	for i := uint32(0); i < n; i++ {
		m.Put(i*3, i)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d want %d", m.Len(), n)
	}
	for i := uint32(0); i < n; i++ {
		if v, ok := m.Get(i * 3); !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v want %d,true", i*3, v, ok, i)
		}
	}
	if _, ok := m.Get(1); ok {
		t.Fatal("phantom key after growth")
	}
}

// TestMapResetIsNewMap: a Reset map refilled with any key sequence —
// through every grow — probes exactly as a NewMap filled with it, and a
// refill to the size it had allocates nothing.
func TestMapResetIsNewMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMap(16)
	for round, n := range []int{5000, 300, 5000, 12000, 0, 5000} {
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = uint32(rng.Intn(1 << 20))
		}
		fresh := NewMap(16)
		m.Reset(16)
		for i, k := range keys {
			fresh.Put(k, uint32(i))
			m.Put(k, uint32(i))
		}
		for k := uint32(0); k < 1<<20; k += 97 {
			v1, ok1, p1 := fresh.GetCounted(k)
			v2, ok2, p2 := m.GetCounted(k)
			if v1 != v2 || ok1 != ok2 || p1 != p2 {
				t.Fatalf("round %d key %d: Reset map (%d,%v,%d), NewMap (%d,%v,%d)", round, k, v2, ok2, p2, v1, ok1, p1)
			}
		}
		if m.Len() != fresh.Len() {
			t.Fatalf("round %d: Len %d, NewMap %d", round, m.Len(), fresh.Len())
		}
	}
	keys := make([]uint32, 12000)
	for i := range keys {
		keys[i] = uint32(i) * 7
	}
	if a := testing.AllocsPerRun(5, func() {
		m.Reset(16)
		for i, k := range keys {
			m.Put(k, uint32(i))
		}
	}); a != 0 {
		t.Errorf("refilling a Reset map to its old size allocates %v times", a)
	}
}

// GetCounted's probe count is what the searches charge HashCost for:
// one slot inspection for a key at its home slot or a miss on an empty
// home slot, one more per occupied slot walked past.
func TestGetCountedProbes(t *testing.T) {
	m := NewMap(8)
	// Four keys sharing one home slot: three form a chain, the fourth
	// is looked up absent and walks the whole chain to the empty slot.
	var chain []uint32
	for k := uint32(1); len(chain) < 4; k++ {
		if hash32(k)&m.mask == hash32(1)&m.mask {
			chain = append(chain, k)
		}
	}
	for i, k := range chain[:3] {
		m.Put(k, uint32(i))
	}
	// A key whose home slot nothing occupies or runs into.
	var lone uint32
	for k := uint32(2); ; k++ {
		if home := hash32(k) & m.mask; !m.isUsed(home) {
			lone = k
			break
		}
	}
	cases := []struct {
		name   string
		key    uint32
		val    uint32
		ok     bool
		probes int
	}{
		{"hit at the home slot", chain[0], 0, true, 1},
		{"hit one slot down the chain", chain[1], 1, true, 2},
		{"hit at the end of the chain", chain[2], 2, true, 3},
		{"miss after walking the chain", chain[3], 0, false, 4},
		{"miss on an empty home slot", lone, 0, false, 1},
	}
	for _, c := range cases {
		val, ok, probes := m.GetCounted(c.key)
		if val != c.val || ok != c.ok || probes != c.probes {
			t.Errorf("%s: GetCounted(%d) = (%d, %v, %d probes), want (%d, %v, %d probes)",
				c.name, c.key, val, ok, probes, c.val, c.ok, c.probes)
		}
	}
}

// TestProbesIsGetCounted: the counts one walk of the table reports for
// its entries, and MissProbes for any other key, are what a lookup of
// the key counts — on maps grown from NewMap(16) at any fill, and on one
// whose chain wraps past the last slot.
func TestProbesIsGetCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(name string, m *Map, keys []uint32) {
		hits := map[uint32]int{}
		m.Probes(func(k, v uint32, p int) {
			if _, ok := hits[k]; ok {
				t.Fatalf("%s: key %d reported twice", name, k)
			}
			hits[k] = p
		})
		if len(hits) != m.Len() {
			t.Fatalf("%s: %d hits for %d entries", name, len(hits), m.Len())
		}
		for _, k := range keys {
			_, ok, want := m.GetCounted(k)
			got, hit := hits[k]
			if !hit {
				got = m.MissProbes(k)
			}
			if hit != ok || got != want {
				t.Fatalf("%s: key %d: walk says present=%v in %d probes, GetCounted present=%v in %d", name, k, hit, got, ok, want)
			}
		}
	}
	for _, n := range []int{0, 1, 7, 8, 100, 3000} {
		m := NewMap(16)
		var keys []uint32
		for i := 0; i < n; i++ {
			k := uint32(rng.Intn(1 << 14))
			m.Put(k, uint32(i))
			keys = append(keys, k)
		}
		for k := uint32(0); k < 1<<14; k += 3 {
			keys = append(keys, k)
		}
		check(fmt.Sprintf("n=%d", n), m, keys)
	}
	m := NewMap(8)
	last := m.mask
	var wrap []uint32
	for k := uint32(0); len(wrap) < 4; k++ {
		if m.home(k) == last {
			wrap = append(wrap, k)
		}
	}
	for i, k := range wrap[:3] {
		m.Put(k, uint32(i))
	}
	check("wrapped chain", m, wrap)
}

func TestMapRange(t *testing.T) {
	m := NewMap(8)
	want := map[uint32]uint32{5: 50, 6: 60, 7: 70}
	for k, v := range want {
		m.Put(k, v)
	}
	got := map[uint32]uint32{}
	m.Range(func(k, v uint32) bool {
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range got[%d]=%d want %d", k, got[k], v)
		}
	}
	count := 0
	m.Range(func(k, v uint32) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early-stop Range visited %d, want 1", count)
	}
}

// TestMapQuickAgainstBuiltin drives the map with random operation
// sequences and checks it behaves exactly like the built-in map.
func TestMapQuickAgainstBuiltin(t *testing.T) {
	f := func(ops []uint32, seed int64) bool {
		m := NewMap(2)
		ref := map[uint32]uint32{}
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			key := op % 97 // force collisions
			if rng.Intn(2) == 0 {
				m.Put(key, op)
				ref[key] = op
			} else {
				v, ok := m.Get(key)
				rv, rok := ref[key]
				if ok != rok || (ok && v != rv) {
					return false
				}
			}
		}
		if m.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			if got, ok := m.Get(k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsetBasic(t *testing.T) {
	b := NewBitset(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	for _, i := range []uint32{0, 63, 64, 129} {
		if b.Test(i) {
			t.Fatalf("bit %d set in fresh bitset", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if b.Count() != 4 {
		t.Fatalf("Count = %d want 4", b.Count())
	}
	b.Clear(64)
	if b.Test(64) || b.Count() != 3 {
		t.Fatal("Clear failed")
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestBitsetTestAndSet(t *testing.T) {
	b := NewBitset(10)
	if b.TestAndSet(3) {
		t.Fatal("TestAndSet on clear bit returned true")
	}
	if !b.TestAndSet(3) {
		t.Fatal("TestAndSet on set bit returned false")
	}
}

func TestSortSet(t *testing.T) {
	s, d := SortSet([]uint32{5, 1, 5, 3, 1, 1})
	if d != 3 {
		t.Fatalf("dups = %d want 3", d)
	}
	want := []uint32{1, 3, 5}
	if len(s) != len(want) {
		t.Fatalf("got %v want %v", s, want)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("got %v want %v", s, want)
		}
	}
	if s, d := SortSet(nil); len(s) != 0 || d != 0 {
		t.Fatal("nil input mishandled")
	}
	if s, d := SortSet([]uint32{9}); len(s) != 1 || d != 0 {
		t.Fatal("singleton mishandled")
	}
}

func TestUnionSorted(t *testing.T) {
	a := []uint32{1, 3, 5}
	b := []uint32{2, 3, 6}
	out, dups := UnionSorted(a, b)
	want := []uint32{1, 2, 3, 5, 6}
	if dups != 1 || len(out) != len(want) {
		t.Fatalf("UnionSorted = %v dups=%d", out, dups)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("UnionSorted = %v want %v", out, want)
		}
	}
}

func TestUnionIntoFastPaths(t *testing.T) {
	if out, d := UnionInto(nil, nil, []uint32{1, 2}); len(out) != 2 || d != 0 {
		t.Fatal("empty a path")
	}
	if out, d := UnionInto(nil, []uint32{1, 2}, nil); len(out) != 2 || d != 0 {
		t.Fatal("empty b path")
	}
	out, d := UnionInto([]uint32{9}, []uint32{1, 2}, []uint32{5, 6})
	if len(out) != 5 || d != 0 || out[0] != 9 || !isSortedSet(out[1:]) {
		t.Fatalf("disjoint path: %v dups=%d", out, d)
	}
}

// refUnion is the compare-and-branch merge UnionInto replaced, kept
// here as the reference it must match.
func refUnion(a, b []uint32) (out []uint32, dups int) {
	out = make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
			dups++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out, dups
}

// TestUnionSortedMatchesReference requires UnionSorted and UnionInto to
// produce the reference merge's output and duplicate count on every
// shape of input a fold meets, UnionInto also when it reuses a dirty
// scratch buffer.
func TestUnionSortedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randSet := func(n int, universe uint32) []uint32 {
		s := make([]uint32, n)
		for i := range s {
			s[i] = uint32(rng.Int63n(int64(universe)))
		}
		s, _ = SortSet(s)
		return s
	}
	seq := func(lo, hi uint32) []uint32 {
		var s []uint32
		for v := lo; v < hi; v++ {
			s = append(s, v)
		}
		return s
	}
	cases := []struct {
		name string
		a, b []uint32
	}{
		{"random", randSet(300, 1000), randSet(200, 1000)},
		{"random-sparse", randSet(50, 1<<30), randSet(70, 1<<30)},
		{"disjoint-ab", seq(0, 40), seq(40, 90)},
		{"disjoint-ba", seq(40, 90), seq(0, 40)},
		{"interleaved", []uint32{0, 2, 4, 6, 8}, []uint32{1, 3, 5, 7, 9}},
		{"identical", seq(5, 60), seq(5, 60)},
		{"nested-a-in-b", seq(20, 30), seq(0, 100)},
		{"nested-b-in-a", seq(0, 100), seq(20, 30)},
		{"empty-both", nil, nil},
		{"empty-a", nil, seq(3, 9)},
		{"empty-b", seq(3, 9), []uint32{}},
		{"single-equal", []uint32{7}, []uint32{7}},
		{"single-below", []uint32{3}, []uint32{7}},
		{"single-above", []uint32{9}, []uint32{7}},
		{"single-in-range", []uint32{1, 5, 9}, []uint32{5}},
		{"max-ids", []uint32{1, ^uint32(0) - 1}, []uint32{^uint32(0) - 1, ^uint32(0)}},
	}
	dirty := make([]uint32, 0, 16)
	for _, tc := range cases {
		want, wantDups := refUnion(tc.a, tc.b)
		got, dups := UnionSorted(tc.a, tc.b)
		if !slices.Equal(got, want) || dups != wantDups {
			t.Errorf("%s: UnionSorted = %s, want %s", tc.name, unionDiff(got, dups), unionDiff(want, wantDups))
		}
		// Reuse one scratch buffer across cases, poisoned with stale
		// words, as the folds do.
		dirty = dirty[:cap(dirty)]
		for i := range dirty {
			dirty[i] = 0xdeadbeef
		}
		got, dups = UnionInto(dirty[:0], tc.a, tc.b)
		if !slices.Equal(got, want) || dups != wantDups {
			t.Errorf("%s: UnionInto(dirty) = %s, want %s", tc.name, unionDiff(got, dups), unionDiff(want, wantDups))
		}
		dirty = got
		// a may sit in dst's spare capacity len(b) past len(dst), the
		// merge writing over it from the front.
		inPlace := make([]uint32, 2, 2+len(tc.a)+len(tc.b)+3)
		inPlace[0], inPlace[1] = 42, 43
		a := append(inPlace[2+len(tc.b):2+len(tc.b)], tc.a...)
		got, dups = UnionInto(inPlace, a, tc.b)
		if !slices.Equal(got[:2], []uint32{42, 43}) || !slices.Equal(got[2:], want) || dups != wantDups || &got[0] != &inPlace[0] {
			t.Errorf("%s: UnionInto(a in place) = %s, want [42 43] then %s", tc.name, unionDiff(got, dups), unionDiff(want, wantDups))
		}
		// Appending keeps dst's existing words.
		head := []uint32{42, 43}
		got, dups = UnionInto(head, tc.a, tc.b)
		if !slices.Equal(got[:2], []uint32{42, 43}) || !slices.Equal(got[2:], want) || dups != wantDups {
			t.Errorf("%s: UnionInto(head) = %s, want [42 43] then %s", tc.name, unionDiff(got, dups), unionDiff(want, wantDups))
		}
	}
}

// TestUnionQuick checks that union of sorted sets equals the set union
// computed through maps, with the duplicate count consistent.
func TestUnionQuick(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		for i := range xs {
			xs[i] %= 50
		}
		for i := range ys {
			ys[i] %= 50
		}
		a, _ := SortSet(append([]uint32(nil), xs...))
		b, _ := SortSet(append([]uint32(nil), ys...))
		out, dups := UnionSorted(a, b)
		if !isSortedSet(out) {
			return false
		}
		ref := map[uint32]bool{}
		for _, v := range a {
			ref[v] = true
		}
		overlap := 0
		for _, v := range b {
			if ref[v] {
				overlap++
			}
			ref[v] = true
		}
		if dups != overlap || len(out) != len(ref) {
			return false
		}
		keys := make([]uint32, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for i := range keys {
			if out[i] != keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMapPutGet(b *testing.B) {
	m := NewMap(1 << 16)
	for i := uint32(0); i < 1<<16; i++ {
		m.Put(i*7, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(uint32(i*7) % (1 << 18))
	}
}

// isSortedSet reports whether s is strictly ascending.
func isSortedSet(s []uint32) bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// unionDiff summarizes a union for a failure message: its length, its
// duplicate count and its first few ids.
func unionDiff(s []uint32, dups int) string {
	return fmt.Sprintf("%d ids %v… dups=%d", len(s), s[:min(len(s), 12)], dups)
}

// BenchmarkUnionSorted merges two member-range sets of benchPairs ids
// each at 10%, 50% and 90% overlap into reused scratch, the way the
// folds call it.
func BenchmarkUnionSorted(b *testing.B) {
	for _, overlap := range []int{10, 50, 90} {
		b.Run(fmt.Sprintf("overlap=%d%%", overlap), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(overlap)))
			// Members are drawn from a range twice the set size; a
			// shared id is in both sets, the rest go to one side each.
			x := make([]uint32, 0, benchPairs)
			y := make([]uint32, 0, benchPairs)
			for v := uint32(0); len(x) < benchPairs || len(y) < benchPairs; v += 1 + uint32(rng.Intn(2)) {
				switch {
				case rng.Intn(100) < overlap:
					if len(x) < benchPairs && len(y) < benchPairs {
						x, y = append(x, v), append(y, v)
					}
				case rng.Intn(2) == 0 && len(x) < benchPairs, len(y) == benchPairs:
					x = append(x, v)
				default:
					y = append(y, v)
				}
			}
			out, _ := UnionInto(nil, x, y)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, _ = UnionInto(out[:0], x, y)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(x)+len(y)), "ns/id")
		})
	}
}
