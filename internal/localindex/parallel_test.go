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
