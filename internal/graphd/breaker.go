package graphd

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file holds the client-side resilience pieces: the seeded jitter
// stream that decorrelates retry storms, the per-host circuit breaker
// that stops hammering a dead server, and the hedger that races a
// duplicate read-only query against a stuck one. All three are
// deterministic given their seed/inputs, so the chaos harness can pin
// exact behavior in tests.

// jitterRNG is a mutex-guarded splitmix64 stream. Deliberately seeded
// and local (no global rand): two clients with the same seed produce
// the same delays, which is what lets tests pin the jitter schedule.
type jitterRNG struct {
	mu sync.Mutex
	s  uint64
}

func newJitterRNG(seed uint64) *jitterRNG { return &jitterRNG{s: seed} }

func (r *jitterRNG) next() uint64 {
	r.mu.Lock()
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	r.mu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// durationN returns a uniform duration in [0, max).
func (r *jitterRNG) durationN(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(r.next() % uint64(max))
}

// errBreakerOpen is what an attempt sees when the breaker refuses to
// send: retryable (the retry sleep doubles as the cooldown wait), so a
// recovered server is rediscovered by the half-open probe.
var errBreakerOpen = errors.New("graphd: circuit breaker open")

// breaker is a three-state circuit breaker over one host. Closed
// passes everything and counts consecutive transport failures; at
// threshold it opens and fails fast without touching the network; after
// cooldown it half-opens and lets exactly ONE probe through — success
// closes it, failure re-opens for another cooldown.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    int // 0 closed, 1 open, 2 half-open
	fails    int
	openedAt time.Time
	probing  bool
}

const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether an attempt may hit the network right now.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// success records an attempt that reached the server (any HTTP answer
// counts — even a 503 proves the host is alive).
func (b *breaker) success() {
	b.mu.Lock()
	b.state = breakerClosed
	b.fails = 0
	b.probing = false
	b.mu.Unlock()
}

// failure records a transport failure (no HTTP answer at all).
func (b *breaker) failure() {
	b.mu.Lock()
	b.fails++
	b.probing = false
	if b.state == breakerHalfOpen || b.fails >= b.threshold {
		b.state = breakerOpen
		b.openedAt = time.Now()
	}
	b.mu.Unlock()
}

// hedgeSamples is how many recent latencies the hedger remembers when
// estimating its trigger quantile.
const hedgeSamples = 128

// hedger decides when a BFS query has been in flight suspiciously long
// and deserves a racing duplicate: past the configured quantile of the
// last hedgeSamples observed latencies (never below the floor). Only
// idempotent reads may hedge — every graphd query is one.
type hedger struct {
	quantile float64
	floor    time.Duration

	mu   sync.Mutex
	lat  []time.Duration
	idx  int
	full bool

	hedged atomic.Int64
}

func newHedger(quantile float64, floor time.Duration) *hedger {
	return &hedger{quantile: quantile, floor: floor, lat: make([]time.Duration, hedgeSamples)}
}

// delay returns how long to wait before firing the hedge.
func (h *hedger) delay() time.Duration {
	h.mu.Lock()
	n := h.idx
	if h.full {
		n = len(h.lat)
	}
	snap := make([]time.Duration, n)
	copy(snap, h.lat[:n])
	h.mu.Unlock()
	if n == 0 {
		return h.floor
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i] < snap[j] })
	k := int(h.quantile * float64(n))
	if k >= n {
		k = n - 1
	}
	if d := snap[k]; d > h.floor {
		return d
	}
	return h.floor
}

// observe records one successful query's latency.
func (h *hedger) observe(d time.Duration) {
	h.mu.Lock()
	h.lat[h.idx] = d
	h.idx++
	if h.idx == len(h.lat) {
		h.idx = 0
		h.full = true
	}
	h.mu.Unlock()
}

// Hedged reports how many duplicate requests were fired.
func (h *hedger) Hedged() int64 { return h.hedged.Load() }
