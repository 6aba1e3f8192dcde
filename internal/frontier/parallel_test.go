package frontier

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/pool"
)

// Deterministic test sets across the occupancy spectrum, sized well
// past the parallelWorthwhile threshold so the grouped paths engage.
func parallelTestSets(t *testing.T) (int, [][]uint32) {
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

// The grouped encode must be byte-identical to the serial encode — same
// payload, same histogram — for every worker count, and the grouped
// decode must invert both.
func TestParCodecMatchesSerial(t *testing.T) {
	n, sets := parallelTestSets(t)
	const lo = 5 * ChunkSpan // offset universe, like a mid-mesh rank block
	for si, ids := range sets {
		shifted := make([]uint32, len(ids))
		for i, v := range ids {
			shifted[i] = v + lo
		}
		var hSerial ContainerHist
		serial := EncodeSetStats(shifted, lo, n, WireHybrid, &hSerial)
		for _, workers := range []int{1, 2, 8} {
			p := pool.New(workers)
			var hPar ContainerHist
			par := EncodeSetStatsPar(p, shifted, lo, n, WireHybrid, &hPar)
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("set %d workers %d: parallel encode differs from serial", si, workers)
			}
			if hSerial != hPar {
				t.Fatalf("set %d workers %d: parallel hist %+v != serial %+v", si, workers, hPar, hSerial)
			}
			dec := DecodePar(p, par)
			if len(dec) == 0 {
				dec = nil
			}
			var want []uint32 = shifted
			if len(shifted) == 0 {
				want = nil
			}
			if !reflect.DeepEqual(dec, want) {
				t.Fatalf("set %d workers %d: parallel decode does not invert encode", si, workers)
			}
			if staged := AppendDecodePar(p, []uint32{7}, par); staged[0] != 7 || !slices.Equal(staged[1:], shifted) {
				t.Fatalf("set %d workers %d: parallel append-decode does not invert encode", si, workers)
			}
		}
	}
}

func TestParBitsMatchesSerial(t *testing.T) {
	n, sets := parallelTestSets(t)
	for si, ids := range sets {
		words := IDsToBits(ids, 0, n)
		var hSerial ContainerHist
		serial := EncodeBits(append([]uint32(nil), words...), n, WireHybrid, &hSerial)
		for _, workers := range []int{1, 2, 8} {
			p := pool.New(workers)
			var hPar ContainerHist
			par := EncodeBitsPar(p, append([]uint32(nil), words...), n, WireHybrid, &hPar)
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("set %d workers %d: parallel bits encode differs from serial", si, workers)
			}
			if hSerial != hPar {
				t.Fatalf("set %d workers %d: parallel bits hist differs", si, workers)
			}
			back := DecodeBitsPar(p, par, n)
			if !reflect.DeepEqual(back, words) {
				t.Fatalf("set %d workers %d: parallel bits decode does not invert", si, workers)
			}
		}
	}
}

// Out-of-universe ids must panic on the grouped path exactly like the
// serial one (the driver relies on this to catch protocol bugs).
func TestParEncodeRejectsOutOfUniverse(t *testing.T) {
	p := pool.New(4)
	n := 20 * ChunkSpan
	ids := make([]uint32, 0, n/2)
	for v := 0; v < n/2; v++ {
		ids = append(ids, uint32(v))
	}
	bad := append(append([]uint32(nil), ids...), uint32(n)) // one past the universe
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-universe id did not panic on the parallel path")
		}
	}()
	EncodeSetStatsPar(p, bad, 0, n, WireHybrid, nil)
}

// SetBitAtomic under contention on shared words must lose no updates;
// this is the 2D bottom-up claims-bitmap regression (run with -race).
func TestSetBitAtomicSharedWords(t *testing.T) {
	const n = 1 << 16
	w := NewBits(n)
	p := pool.New(8)
	p.Run(n, 7, func(chunk, lo, hi int) { // grain 7 keeps chunks word-straddling
		for i := lo; i < hi; i++ {
			if i%3 != 0 {
				SetBitAtomic(w, uint32(i))
			}
		}
	})
	for i := 0; i < n; i++ {
		if got, want := TestBit(w, uint32(i)), i%3 != 0; got != want {
			t.Fatalf("bit %d = %v, want %v (lost update)", i, got, want)
		}
	}
}

// AppendEncodeSetPar must append exactly what EncodeSetStats returns —
// same payload, same histogram — under every wire mode, after any
// prefix, and into capacity reserved with EncodeSetBound without
// reallocating.
func TestAppendEncodeSetMatchesEncode(t *testing.T) {
	n, sets := parallelTestSets(t)
	sets = append(sets, []uint32{3, 9, 4000}, seqIDs(100, 300))
	p := pool.New(2)
	for si, ids := range sets {
		for _, mode := range []WireMode{WireSparse, WireDense, WireAuto, WireHybrid} {
			var hWant, hGot ContainerHist
			want := EncodeSetStats(ids, 0, n, mode, &hWant)
			prefix := []uint32{0xabc, 0xdef}
			buf := make([]uint32, len(prefix), len(prefix)+EncodeSetBound(mode, n, len(ids)))
			copy(buf, prefix)
			got := AppendEncodeSetPar(p, buf, ids, 0, n, mode, &hGot)
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
