package localindex

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The references below are the sort-then-compact merges the engines
// used before the Combiner (bfs.dedupOr, sssp.dedupMin, and SortSet for
// the union). They stay here as the oracle the Combiner must match
// element for element.

type orPairs struct {
	vs []uint32
	ms []uint64
}

func (p orPairs) Len() int           { return len(p.vs) }
func (p orPairs) Less(i, j int) bool { return p.vs[i] < p.vs[j] }
func (p orPairs) Swap(i, j int) {
	p.vs[i], p.vs[j] = p.vs[j], p.vs[i]
	p.ms[i], p.ms[j] = p.ms[j], p.ms[i]
}

func refOr(vs []uint32, ms []uint64) ([]uint32, []uint64, int) {
	if len(vs) < 2 {
		return vs, ms, 0
	}
	sort.Sort(orPairs{vs, ms})
	w := 1
	for i := 1; i < len(vs); i++ {
		if vs[i] != vs[w-1] {
			vs[w], ms[w] = vs[i], ms[i]
			w++
		} else {
			ms[w-1] |= ms[i]
		}
	}
	return vs[:w], ms[:w], len(vs) - w
}

type minPairs struct{ vs, ds []uint32 }

func (p minPairs) Len() int { return len(p.vs) }
func (p minPairs) Less(i, j int) bool {
	return p.vs[i] < p.vs[j] || (p.vs[i] == p.vs[j] && p.ds[i] < p.ds[j])
}
func (p minPairs) Swap(i, j int) {
	p.vs[i], p.vs[j] = p.vs[j], p.vs[i]
	p.ds[i], p.ds[j] = p.ds[j], p.ds[i]
}

func refMin(vs, ds []uint32) ([]uint32, []uint32, int) {
	if len(vs) < 2 {
		return vs, ds, 0
	}
	sort.Sort(minPairs{vs, ds})
	w := 1
	for i := 1; i < len(vs); i++ {
		if vs[i] != vs[w-1] {
			vs[w], ds[w] = vs[i], ds[i]
			w++
		}
	}
	return vs[:w], ds[:w], len(vs) - w
}

// checkCombine runs one (ids, vals) batch through all three merge forms
// of c, already Reset to the batch's range, and compares each with its
// reference. The 64-bit masks are derived from vals so one input drives
// every form.
func checkCombine(t *testing.T, c *Combiner, ids, vals []uint32) {
	t.Helper()
	masks := make([]uint64, len(vals))
	for i, v := range vals {
		masks[i] = uint64(v)<<32 | uint64(^v)
	}

	wantU, wantD := SortSet(slices.Clone(ids))
	c.Add(ids)
	gotU, gotD := c.Drain(nil)
	if !slices.Equal(gotU, wantU) || gotD != wantD {
		t.Fatalf("union: got %v absorbed %d, want %v absorbed %d", gotU, gotD, wantU, wantD)
	}

	wantV, wantM, wantD := refOr(slices.Clone(ids), slices.Clone(masks))
	c.AddOr(ids, masks)
	gotV, gotM, gotD := c.DrainOr(nil, nil)
	if !slices.Equal(gotV, wantV) || !slices.Equal(gotM, wantM) || gotD != wantD {
		t.Fatalf("or: got %v %x absorbed %d, want %v %x absorbed %d", gotV, gotM, gotD, wantV, wantM, wantD)
	}

	wantV, wantS, wantD := refMin(slices.Clone(ids), slices.Clone(vals))
	c.AddMin(ids, vals)
	gotV, gotS, gotD := c.DrainMin(nil, nil)
	if !slices.Equal(gotV, wantV) || !slices.Equal(gotS, wantS) || gotD != wantD {
		t.Fatalf("min: got %v %v absorbed %d, want %v %v absorbed %d", gotV, gotS, gotD, wantV, wantS, wantD)
	}
	if out, absorbed := c.Drain(nil); len(out) != 0 || absorbed != 0 {
		t.Fatalf("drained Combiner emitted %v, absorbed %d", out, absorbed)
	}
}

func TestCombineCases(t *testing.T) {
	const lo, n = 1000, 200
	cases := []struct {
		name      string
		ids, vals []uint32
	}{
		{"empty", nil, nil},
		{"single", []uint32{1042}, []uint32{7}},
		{"all-duplicates", []uint32{1100, 1100, 1100, 1100}, []uint32{9, 3, 3, 12}},
		{"range-edges", []uint32{lo + n - 1, lo, lo + n - 1, lo}, []uint32{5, 6, 4, 8}},
		{"word-boundaries", []uint32{lo + 63, lo + 64, lo + 127, lo + 128, lo + 64}, []uint32{1, 2, 3, 4, 0}},
		{"max-values", []uint32{1001, 1001, 1002}, []uint32{math.MaxUint32, math.MaxUint32, math.MaxUint32}},
		{"zero-values", []uint32{1001, 1001, 1002}, []uint32{0, 0, 0}},
	}
	// One Combiner serves every case in turn, so a bit or value a drain
	// failed to clear would surface in the next case.
	c := NewCombiner(n)
	c.Reset(lo, n)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkCombine(t, c, tc.ids, tc.vals) })
	}
}

func TestCombineRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := NewCombiner(5000)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(5000)
		lo := uint32(rng.Intn(1 << 20))
		c.Reset(lo, n)
		// spread < n concentrates the ids, raising the duplicate rate.
		spread := 1 + rng.Intn(n)
		ids := make([]uint32, rng.Intn(3000))
		vals := make([]uint32, len(ids))
		for i := range ids {
			ids[i] = lo + uint32(rng.Intn(spread))
			vals[i] = uint32(rng.Intn(64))
		}
		checkCombine(t, c, ids, vals)
	}
}

// TestCombineStreamed adds one batch in several calls, as the receive
// side does with the parts of an exchange, and appends the drain to a
// non-empty destination.
func TestCombineStreamed(t *testing.T) {
	c := NewCombiner(64)
	c.Reset(10, 40)
	c.AddMin([]uint32{12, 49}, []uint32{8, 1})
	c.AddMin(nil, nil)
	c.AddMin([]uint32{12, 10}, []uint32{5, 2})
	ids, vals, absorbed := c.DrainMin([]uint32{99}, []uint32{99})
	if !slices.Equal(ids, []uint32{99, 10, 12, 49}) || !slices.Equal(vals, []uint32{99, 2, 5, 1}) || absorbed != 1 {
		t.Fatalf("got %v %v absorbed %d", ids, vals, absorbed)
	}
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not mention %q", msg, want)
		}
	}()
	fn()
}

func TestCombineOutOfRangePanics(t *testing.T) {
	for _, id := range []uint32{99, 150, 0, math.MaxUint32} {
		c := NewCombiner(64)
		c.Reset(100, 50)
		want := fmt.Sprintf("id %d outside its range [100, 150)", id)
		mustPanic(t, want, func() { c.Add([]uint32{120, id}) })
		mustPanic(t, want, func() { c.AddOr([]uint32{id}, []uint64{1}) })
		mustPanic(t, want, func() { c.AddMin([]uint32{id}, []uint32{1}) })
	}
	c := NewCombiner(64)
	mustPanic(t, "exceeds the capacity", func() { c.Reset(0, 65) })
	c.Add([]uint32{3})
	mustPanic(t, "undrained", func() { c.Reset(0, 10) })
}

// FuzzCombine decodes the input as a range and a batch of (offset,
// value) pairs and checks all three merge forms against the references,
// twice through one Combiner so the second pass sees whatever the first
// left behind.
func FuzzCombine(f *testing.F) {
	f.Add(uint32(0), uint16(1), []byte{})
	f.Add(uint32(1000), uint16(200), []byte{0, 0, 5, 199, 0, 4, 0, 0, 9})
	f.Add(uint32(math.MaxUint32-300), uint16(300), []byte{1, 43, 255, 1, 43, 0})
	f.Fuzz(func(t *testing.T, lo uint32, span uint16, data []byte) {
		n := int(span)
		if n == 0 || uint64(lo)+uint64(n) > math.MaxUint32 {
			return
		}
		var ids, vals []uint32
		for ; len(data) >= 3; data = data[3:] {
			ids = append(ids, lo+uint32(binary.BigEndian.Uint16(data))%uint32(n))
			vals = append(vals, uint32(data[2]))
		}
		c := NewCombiner(n)
		c.Reset(lo, n)
		checkCombine(t, c, ids, vals)
		slices.Reverse(ids)
		checkCombine(t, c, ids, vals)
	})
}

// The benchmarks combine one rank's share of multibfs1d-64's largest
// sweep: that sweep scans ~160k edge entries (n = 16000, degree 10,
// nearly every vertex in the lane-OR frontier) over P = 16 ranks.
const benchPairs = 10000

// benchBatch returns benchPairs ids over [0, benchPairs) of which the
// given fraction are duplicates, shuffled, with values.
func benchBatch(dupFrac float64) (ids []uint32, masks []uint64, vals []uint32) {
	rng := rand.New(rand.NewSource(5))
	distinct := int(float64(benchPairs) * (1 - dupFrac))
	ids = make([]uint32, benchPairs)
	masks = make([]uint64, benchPairs)
	vals = make([]uint32, benchPairs)
	for i, p := range rng.Perm(benchPairs) {
		ids[i] = uint32(p % distinct)
		masks[i] = 1 << uint(rng.Intn(64))
		vals[i] = uint32(rng.Intn(1 << 16))
	}
	return ids, masks, vals
}

func benchCombine(b *testing.B, run func(c *Combiner, ids []uint32, masks []uint64, vals []uint32)) {
	for _, dup := range []int{0, 50, 90} {
		b.Run(fmt.Sprintf("dups=%d%%", dup), func(b *testing.B) {
			ids, masks, vals := benchBatch(float64(dup) / 100)
			c := NewCombiner(benchPairs)
			run(c, ids, masks, vals) // allocate the value array and grow the outputs
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(c, ids, masks, vals)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchPairs, "ns/id")
		})
	}
}

func BenchmarkCombineUnion(b *testing.B) {
	var out []uint32
	benchCombine(b, func(c *Combiner, ids []uint32, _ []uint64, _ []uint32) {
		c.Add(ids)
		out, _ = c.Drain(out[:0])
	})
}

func BenchmarkCombineOr(b *testing.B) {
	var outV []uint32
	var outM []uint64
	benchCombine(b, func(c *Combiner, ids []uint32, masks []uint64, _ []uint32) {
		c.AddOr(ids, masks)
		outV, outM, _ = c.DrainOr(outV[:0], outM[:0])
	})
}

func BenchmarkCombineMin(b *testing.B) {
	var outV, outS []uint32
	benchCombine(b, func(c *Combiner, ids []uint32, _ []uint64, vals []uint32) {
		c.AddMin(ids, vals)
		outV, outS, _ = c.DrainMin(outV[:0], outS[:0])
	})
}

// BenchmarkCombineSortReference is the sort-then-compact OR-merge on
// the same batches, for the before/after comparison.
func BenchmarkCombineSortReference(b *testing.B) {
	vs := make([]uint32, benchPairs)
	ms := make([]uint64, benchPairs)
	benchCombine(b, func(_ *Combiner, ids []uint32, masks []uint64, _ []uint32) {
		copy(vs, ids)
		copy(ms, masks)
		refOr(vs, ms)
	})
}
