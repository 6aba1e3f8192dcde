package pool

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// Every chunk must be visited exactly once, boundaries must tile [0, n)
// exactly, and chunk ids must match lo/grain — for any worker count.
func TestRunCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8} {
		for _, n := range []int{0, 1, 5, 64, 1000, 4097} {
			for _, grain := range []int{1, 7, 64, 4096} {
				p := New(workers)
				seen := make([]int32, n)
				var chunks atomic.Int64
				p.Run(n, grain, func(chunk, lo, hi int) {
					chunks.Add(1)
					if lo != chunk*grain {
						t.Errorf("chunk %d: lo=%d want %d", chunk, lo, chunk*grain)
					}
					if hi < lo || hi > n {
						t.Errorf("chunk %d: bad hi=%d (lo=%d n=%d)", chunk, hi, lo, n)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&seen[i], 1)
					}
				})
				if got, want := int(chunks.Load()), Chunks(n, grain); got != want {
					t.Fatalf("workers=%d n=%d grain=%d: %d chunks, want %d", workers, n, grain, got, want)
				}
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times", workers, n, grain, i, c)
					}
				}
			}
		}
	}
}

// Per-chunk outputs concatenated in chunk order must be identical for
// every worker count — the determinism contract the engines rely on.
func TestOrderedMergeIsWorkerCountIndependent(t *testing.T) {
	const n, grain = 10000, 256
	merge := func(workers int) []int {
		p := New(workers)
		nc := Chunks(n, grain)
		parts := make([][]int, nc)
		p.Run(n, grain, func(chunk, lo, hi int) {
			for i := lo; i < hi; i++ {
				if i%3 == 0 {
					parts[chunk] = append(parts[chunk], i)
				}
			}
		})
		var out []int
		for _, part := range parts {
			out = append(out, part...)
		}
		return out
	}
	want := merge(1)
	for _, workers := range []int{2, 4, 8} {
		if got := merge(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: merged output differs from serial", workers)
		}
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", p.Workers())
	}
	sum := 0
	p.Run(10, 4, func(chunk, lo, hi int) { sum += hi - lo }) // data race here would fail under -race if not inline
	if sum != 10 {
		t.Fatalf("nil pool covered %d items, want 10", sum)
	}
}

func TestPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("workers=%d: recovered %v, want boom", workers, r)
				}
			}()
			p.Run(100, 10, func(chunk, lo, hi int) {
				if chunk == 3 {
					panic("boom")
				}
			})
			t.Fatalf("workers=%d: Run returned instead of panicking", workers)
		}()
	}
}

func TestChunksEdgeCases(t *testing.T) {
	cases := []struct{ n, grain, want int }{
		{0, 10, 0}, {-5, 10, 0}, {1, 10, 1}, {10, 10, 1}, {11, 10, 2}, {10, 0, 10},
	}
	for _, c := range cases {
		if got := Chunks(c.n, c.grain); got != c.want {
			t.Errorf("Chunks(%d, %d) = %d, want %d", c.n, c.grain, got, c.want)
		}
	}
}

// Collect hands every chunk its own zero-valued output and returns them
// in chunk order at every worker count; Inline is true exactly when the
// loop would not leave the caller's goroutine.
func TestCollectAndInline(t *testing.T) {
	const n, grain = 1000, 64
	type out struct{ lo, hi int }
	for _, workers := range []int{1, 2, 8} {
		outs := Collect(New(workers), n, grain, func(o *out, lo, hi int) {
			if *o != (out{}) {
				t.Errorf("workers=%d: chunk at %d started from a used output %v", workers, lo, *o)
			}
			*o = out{lo, hi}
		})
		if len(outs) != Chunks(n, grain) {
			t.Fatalf("workers=%d: %d outputs, want %d", workers, len(outs), Chunks(n, grain))
		}
		for c, o := range outs {
			if want := (out{c * grain, min((c+1)*grain, n)}); o != want {
				t.Fatalf("workers=%d: output %d = %v, want %v", workers, c, o, want)
			}
		}
	}
	var nilPool *Pool
	cases := []struct {
		p        *Pool
		n, grain int
		want     bool
	}{
		{nilPool, 1000, 64, true}, {New(1), 1000, 64, true},
		{New(4), 64, 64, true}, {New(4), 0, 64, true}, {New(4), 65, 64, false},
	}
	for _, c := range cases {
		if got := c.p.Inline(c.n, c.grain); got != c.want {
			t.Errorf("workers=%d Inline(%d, %d) = %v, want %v", c.p.Workers(), c.n, c.grain, got, c.want)
		}
	}
}
