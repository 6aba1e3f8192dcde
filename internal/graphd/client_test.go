package graphd

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fastClient builds a client with millisecond backoff so retry tests
// stay quick.
func fastClient(base string, retries int) *Client {
	c := NewClient(base, WithRetries(retries), WithTimeout(5*time.Second))
	c.backoff, c.maxWait = time.Millisecond, 5*time.Millisecond
	return c
}

// TestClientRetriesOverload: 503 answers are retried (honouring
// Retry-After) until the server recovers.
func TestClientRetriesOverload(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) < 3 {
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":"batch backlog full"}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"source":1,"reached":5,"stats":{"batch_size":1}}`))
	}))
	defer ts.Close()

	resp, err := fastClient(ts.URL, 3).BFS(BFSRequest{Source: intp(1)})
	if err != nil {
		t.Fatalf("BFS after two overloads: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
	if resp.Reached != 5 {
		t.Fatalf("decoded reached %d, want 5", resp.Reached)
	}
}

// TestClientNoRetryOn4xx: a bad request is the caller's fault; one
// attempt, typed error.
func TestClientNoRetryOn4xx(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write([]byte(`{"error":"missing \"source\""}`))
	}))
	defer ts.Close()

	_, err := fastClient(ts.URL, 3).BFS(BFSRequest{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v is not an *APIError", err)
	}
	if apiErr.Status != http.StatusBadRequest || !strings.Contains(apiErr.Message, "missing") {
		t.Fatalf("APIError %+v, want the server's 400 text", apiErr)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("client retried a 400: %d attempts", got)
	}
}

// TestClientGivesUp: a persistently overloaded server exhausts the
// retry budget with a terminal error that still carries the 503.
func TestClientGivesUp(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"error":"still full"}`))
	}))
	defer ts.Close()

	_, err := fastClient(ts.URL, 2).BFS(BFSRequest{Source: intp(1)})
	if err == nil {
		t.Fatal("no error from a server that never recovers")
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (1 + 2 retries)", got)
	}
	if !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("terminal error %q does not say it gave up", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("terminal error %v does not wrap the 503", err)
	}
}

// TestClientRetriesTransport: a dropped connection is retried.
func TestClientRetriesTransport(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("test server is not hijackable")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatalf("hijack: %v", err)
			}
			conn.Close() // slam the connection: transport error client-side
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"source":1,"reached":2,"stats":{}}`))
	}))
	defer ts.Close()

	resp, err := fastClient(ts.URL, 2).BFS(BFSRequest{Source: intp(1)})
	if err != nil {
		t.Fatalf("BFS after a dropped connection: %v", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2", got)
	}
	if resp.Reached != 2 {
		t.Fatalf("decoded reached %d, want 2", resp.Reached)
	}
}

// TestClientRetryDelay pins the backoff arithmetic with jitter off:
// doubling from the base, capped, with a short server Retry-After
// taking precedence.
func TestClientRetryDelay(t *testing.T) {
	c := NewClient("http://unused", WithJitterSeed(0))
	c.backoff, c.maxWait = 10*time.Millisecond, 50*time.Millisecond
	cases := []struct {
		attempt    int
		retryAfter string
		want       time.Duration
	}{
		{1, "", 10 * time.Millisecond},
		{2, "", 20 * time.Millisecond},
		{3, "", 40 * time.Millisecond},
		{4, "", 50 * time.Millisecond},  // capped
		{1, "0", 0},                     // server says now
		{1, "2", 50 * time.Millisecond}, // server says 2s; cap wins
		{1, "junk", 10 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := c.retryDelay(tc.attempt, tc.retryAfter); got != tc.want {
			t.Errorf("retryDelay(%d, %q) = %v, want %v", tc.attempt, tc.retryAfter, got, tc.want)
		}
	}
}

// TestClientRetryJitter pins the jittered backoff contract: a computed
// delay lands in [d/2, d) so lockstep retry storms decorrelate, a
// server-directed Retry-After is never shortened (it gains at most an
// extra quarter), and the same seed reproduces the same schedule
// exactly — the determinism the chaos harness relies on.
func TestClientRetryJitter(t *testing.T) {
	mk := func(seed uint64) *Client {
		c := NewClient("http://unused", WithJitterSeed(seed))
		c.backoff, c.maxWait = 10*time.Millisecond, 80*time.Millisecond
		return c
	}
	c := mk(42)
	for attempt := 1; attempt <= 3; attempt++ {
		base := 10 * time.Millisecond << (attempt - 1)
		got := c.retryDelay(attempt, "")
		if got < base/2 || got >= base {
			t.Errorf("jittered delay %v for attempt %d outside [%v, %v)", got, attempt, base/2, base)
		}
	}
	// Server-directed waits only grow, and only by up to a quarter.
	// The 80ms cap applies before jitter, so the spread tops the cap.
	for i := 0; i < 8; i++ {
		got := c.retryDelay(1, "1")
		lo, hi := 80*time.Millisecond, 100*time.Millisecond
		if got < lo || got >= hi {
			t.Errorf("jittered Retry-After delay %v outside [%v, %v)", got, lo, hi)
		}
	}
	// Same seed, same schedule — bit-for-bit.
	a, b := mk(7), mk(7)
	for attempt := 1; attempt <= 6; attempt++ {
		da, db := a.retryDelay(attempt, ""), b.retryDelay(attempt, "")
		if da != db {
			t.Fatalf("same-seed clients diverged at attempt %d: %v vs %v", attempt, da, db)
		}
	}
	// Different seeds should disagree somewhere in a handful of draws.
	a, b = mk(1), mk(2)
	same := true
	for attempt := 1; attempt <= 6; attempt++ {
		if a.retryDelay(attempt, "") != b.retryDelay(attempt, "") {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical six-delay schedules")
	}
}

// TestClientBreakerStates pins the breaker state machine: closed until
// threshold consecutive transport failures, fail-fast while open, one
// half-open probe after cooldown, closing again on success.
func TestClientBreakerStates(t *testing.T) {
	b := newBreaker(3, 50*time.Millisecond)
	for i := 0; i < 3; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		b.failure()
	}
	if b.allow() {
		t.Fatal("breaker still allows after reaching the failure threshold")
	}
	time.Sleep(60 * time.Millisecond)
	if !b.allow() {
		t.Fatal("breaker did not half-open after the cooldown")
	}
	if b.allow() {
		t.Fatal("half-open breaker let a second probe through")
	}
	b.failure() // probe failed: re-open
	if b.allow() {
		t.Fatal("breaker closed again after a failed probe")
	}
	time.Sleep(60 * time.Millisecond)
	if !b.allow() {
		t.Fatal("breaker did not half-open a second time")
	}
	b.success() // probe succeeded: closed
	for i := 0; i < 5; i++ {
		if !b.allow() {
			t.Fatalf("closed-again breaker refused attempt %d", i)
		}
	}
}

// TestClientBreakerFailsFast: with the breaker open against a dead
// listener, retries stop touching the network and the terminal error
// names the breaker.
func TestClientBreakerFailsFast(t *testing.T) {
	// A listener that is already closed: every dial fails instantly.
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead := ts.URL
	ts.Close()

	c := NewClient(dead,
		WithRetries(5),
		WithBreaker(2, time.Minute), // open after 2 failures, long cooldown
		WithTimeout(time.Second))
	c.backoff, c.maxWait = time.Millisecond, 2*time.Millisecond
	_, err := c.BFS(BFSRequest{Source: intp(1)})
	if err == nil {
		t.Fatal("BFS against a dead listener succeeded")
	}
	if !strings.Contains(err.Error(), "circuit breaker open") {
		t.Fatalf("terminal error %q does not name the open breaker", err)
	}
}

// TestClientHedgedBFS: with hedging armed and a server whose FIRST
// answer stalls, the duplicate request wins and the client returns
// long before the stalled attempt would have.
func TestClientHedgedBFS(t *testing.T) {
	var n atomic.Int64
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			<-release // first attempt wedges until the test ends
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"source":3,"reached":9,"stats":{}}`))
	}))
	defer ts.Close()
	defer close(release)

	c := NewClient(ts.URL,
		WithRetries(0),
		WithTimeout(10*time.Second),
		WithHedge(0.5, 20*time.Millisecond))
	done := make(chan struct{})
	var resp *BFSResponse
	var err error
	go func() { resp, err = c.BFS(BFSRequest{Source: intp(3)}); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("hedged BFS did not return while the first attempt was wedged")
	}
	if err != nil {
		t.Fatalf("hedged BFS: %v", err)
	}
	if resp.Reached != 9 {
		t.Fatalf("decoded reached %d, want 9", resp.Reached)
	}
	if c.Hedged() != 1 {
		t.Fatalf("client fired %d hedges, want exactly 1", c.Hedged())
	}
}
