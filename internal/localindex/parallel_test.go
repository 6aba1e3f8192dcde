package localindex

import (
	"sync"
	"sync/atomic"
	"testing"
)

// A built map is read-only: concurrent Get and GetCounted over one map
// pass -race, agree with each other, and the per-goroutine probe tallies
// add up to what one goroutine counts over the same keys.
func TestMapConcurrentReaders(t *testing.T) {
	m := NewMap(4096)
	for k := uint32(0); k < 4096; k++ {
		m.Put(k, k+1)
	}
	var want uint64
	for k := uint32(0); k < 8192; k++ {
		_, _, pr := m.GetCounted(k)
		want += uint64(pr)
	}

	var wg sync.WaitGroup
	var total atomic.Uint64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local uint64
			for k := uint32(w); k < 8192; k += 8 {
				v, ok, pr := m.GetCounted(k)
				if ok != (k < 4096) || (ok && v != k+1) {
					t.Errorf("key %d: got (%d,%v)", k, v, ok)
				}
				if v2, ok2 := m.Get(k); v2 != v || ok2 != ok {
					t.Errorf("key %d: Get (%d,%v) != GetCounted (%d,%v)", k, v2, ok2, v, ok)
				}
				local += uint64(pr)
			}
			total.Add(local)
		}(w)
	}
	wg.Wait()
	if got := total.Load(); got != want {
		t.Fatalf("concurrent probe total %d != serial %d", got, want)
	}
}

// TestAndSetAtomic: exactly one claimant per bit wins, nothing is lost,
// and the final bitset matches serial TestAndSet (run with -race).
func TestTestAndSetAtomicConcurrent(t *testing.T) {
	const n = 1 << 14
	b := NewBitset(n)
	var wins atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint32(0); i < n; i++ {
				if i%5 == 0 {
					continue
				}
				if !b.TestAndSetAtomic(i) {
					wins.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	want := int64(0)
	for i := uint32(0); i < n; i++ {
		set := i%5 != 0
		if set {
			want++
		}
		if b.Test(i) != set {
			t.Fatalf("bit %d = %v, want %v", i, b.Test(i), set)
		}
	}
	if wins.Load() != want {
		t.Fatalf("%d wins across claimants, want exactly %d (one per bit)", wins.Load(), want)
	}
}
