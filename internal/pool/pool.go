// Package pool provides the per-rank worker pool behind the engines'
// intra-rank parallelism. A Pool runs the body of a hot local loop —
// top-down scans, bottom-up edge checks, Δ-stepping relaxations — over
// fixed-width chunks of an index range: the loops whose charges the
// cost model divides by the modeled core count. The wire codec stays
// serial.
//
// The determinism contract: chunk boundaries depend only on (n, grain),
// never on the worker count or the scheduler, so per-chunk outputs
// concatenated in chunk order are what one pass over [0, n) appends.
// Workers claim chunks dynamically (an atomic counter), which balances
// skewed edge lists without affecting the merge order.
//
// Every engine loop is written once, as a chunk body over [lo, hi):
// where Inline holds the engine calls it once over the whole range,
// appending straight into its destination; otherwise Collect runs it per
// chunk, each into an output of its own, and the engine merges those in
// chunk order.
package pool

import (
	"sync"
	"sync/atomic"
)

// Pool schedules chunked loops over a fixed number of workers. The nil
// pool and any pool with one worker run every chunk inline on the
// caller's goroutine, spawning nothing.
type Pool struct {
	workers int
}

// New returns a pool that runs loop bodies on up to workers goroutines.
// Values below 1 are treated as 1 (serial).
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// Workers reports the pool's worker count; the nil pool reports 1.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Chunks returns the number of fixed-width chunks covering [0, n) at
// the given grain. Grains below 1 are treated as 1.
func Chunks(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	return (n + grain - 1) / grain
}

// Inline reports whether a loop over n items at the given grain stays
// on the caller's goroutine — one worker, or at most one chunk — so
// that staging per-chunk outputs would buy nothing.
func (p *Pool) Inline(n, grain int) bool {
	return p.Workers() <= 1 || Chunks(n, grain) <= 1
}

// Collect runs body once per chunk of [0, n) on the pool, each call
// filling the zero-valued output of its chunk, and returns the outputs
// in chunk order.
func Collect[T any](p *Pool, n, grain int, body func(out *T, lo, hi int)) []T {
	outs := make([]T, Chunks(n, grain))
	p.Run(n, grain, func(chunk, lo, hi int) { body(&outs[chunk], lo, hi) })
	return outs
}

// Run partitions [0, n) into chunks of grain items and calls
// fn(chunk, lo, hi) exactly once per chunk. Boundaries are a pure
// function of (n, grain). With one worker — or one chunk — the chunks
// run inline in ascending order; otherwise workers claim chunks from a
// shared atomic counter, so fn must only touch per-chunk state (or
// synchronize itself, e.g. CAS-claimed visit bitmaps). fn must never
// touch the simulated clock: charges are computed by the caller from
// the merged totals. A panic inside fn is re-raised on the caller's
// goroutine once every worker has stopped.
func (p *Pool) Run(n, grain int, fn func(chunk, lo, hi int)) {
	if grain < 1 {
		grain = 1
	}
	nc := Chunks(n, grain)
	if nc == 0 {
		return
	}
	w := p.Workers()
	if w > nc {
		w = nc
	}
	if w <= 1 {
		for c := 0; c < nc; c++ {
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(c, lo, hi)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Value
	)
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, poolPanic{r})
				}
			}()
			for {
				c := int(next.Add(1)) - 1
				if c >= nc {
					return
				}
				lo := c * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				fn(c, lo, hi)
			}
		}()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(r.(poolPanic).val)
	}
}

// poolPanic wraps a recovered value so atomic.Value accepts any
// (possibly non-comparable) panic payload under one concrete type.
type poolPanic struct{ val any }
