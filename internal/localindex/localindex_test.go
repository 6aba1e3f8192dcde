package localindex

import (
	"math/rand"
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

func TestMapGetOrPut(t *testing.T) {
	m := NewMap(8)
	next := uint32(0)
	gen := func() uint32 { next++; return next - 1 }
	a := m.GetOrPut(100, gen)
	b := m.GetOrPut(200, gen)
	c := m.GetOrPut(100, gen)
	if a != 0 || b != 1 || c != 0 {
		t.Fatalf("GetOrPut sequence = %d,%d,%d want 0,1,0", a, b, c)
	}
	if next != 2 {
		t.Fatalf("generator called %d times, want 2", next)
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
	if out, d := UnionInto(nil, []uint32{1, 2}); len(out) != 2 || d != 0 {
		t.Fatal("empty dst path")
	}
	if out, d := UnionInto([]uint32{1, 2}, nil); len(out) != 2 || d != 0 {
		t.Fatal("empty src path")
	}
	out, d := UnionInto([]uint32{1, 2}, []uint32{5, 6})
	if len(out) != 4 || d != 0 || !IsSortedSet(out) {
		t.Fatalf("disjoint path: %v dups=%d", out, d)
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
		if !IsSortedSet(out) {
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
