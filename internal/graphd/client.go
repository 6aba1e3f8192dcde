package graphd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client is the well-typed HTTP client for a graphd server — the one
// cmd/graphload, the smoke harness, and tests all share instead of
// each hand-rolling raw HTTP. It retries overload answers (503) and
// transport failures with capped exponential backoff plus seeded
// deterministic jitter, honouring the server's Retry-After header, and
// never retries 4xx answers (the request itself is wrong) or queries
// that already reached the engine. An optional circuit breaker fails
// fast when the host stops answering at all, and optional hedging
// races a duplicate BFS against one stuck past the usual latency.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
	maxWait time.Duration
	rng     *jitterRNG
	br      *breaker
	hedge   *hedger
}

// ClientOption adjusts a Client.
type ClientOption func(*Client)

// WithTimeout bounds each HTTP attempt (default 30s — a full traversal
// of a large graph takes real wall time).
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.hc.Timeout = d }
}

// WithRetries sets how many times an attempt is retried after an
// overload or transport failure (default 3; 0 disables retrying).
func WithRetries(n int) ClientOption {
	return func(c *Client) { c.retries = n }
}

// WithJitterSeed reseeds the deterministic retry jitter (default seed
// 1). Seed 0 disables jitter entirely — every delay is then exactly
// the doubled base, which is what the pre-jitter releases did and what
// a test that wants exact delays asks for.
func WithJitterSeed(seed uint64) ClientOption {
	return func(c *Client) {
		if seed == 0 {
			c.rng = nil
			return
		}
		c.rng = newJitterRNG(seed)
	}
}

// WithBreaker arms the per-host circuit breaker: after threshold
// CONSECUTIVE transport failures (no HTTP answer at all — any status
// code counts as alive) the client fails fast for cooldown, then lets
// one half-open probe rediscover the host. Threshold 0 disables
// (the default).
func WithBreaker(threshold int, cooldown time.Duration) ClientOption {
	return func(c *Client) {
		if threshold <= 0 {
			c.br = nil
			return
		}
		c.br = newBreaker(threshold, cooldown)
	}
}

// WithHedge arms BFS request hedging: a query still unanswered past
// the given quantile of recently observed latencies (never below
// floor) fires one racing duplicate, and the first success wins. Safe
// because every graphd query is an idempotent read. Off by default.
func WithHedge(quantile float64, floor time.Duration) ClientOption {
	return func(c *Client) {
		if quantile <= 0 || quantile >= 1 {
			quantile = 0.95
		}
		c.hedge = newHedger(quantile, floor)
	}
}

// NewClient returns a client for the server at base (e.g.
// "http://127.0.0.1:8080").
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      &http.Client{Timeout: 30 * time.Second},
		retries: 3,
		backoff: 50 * time.Millisecond,
		maxWait: 2 * time.Second,
		rng:     newJitterRNG(1),
	}
	for _, fn := range opts {
		fn(c)
	}
	return c
}

// APIError is a non-2xx server answer, preserving the status code so
// callers can distinguish their own bad request (4xx) from server
// trouble (5xx).
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("graphd: server answered %d: %s", e.Status, e.Message)
}

// retryDelay picks the wait before attempt (1-based), preferring the
// server's Retry-After when it is shorter than the cap. Jitter (when
// seeded) spreads a computed backoff over [d/2, d) so a fleet of
// clients that failed together does not retry in lockstep; a
// server-directed Retry-After is never shortened — it gains up to d/4
// instead, decorrelating the reconnect herd the 503 itself created.
func (c *Client) retryDelay(attempt int, retryAfter string) time.Duration {
	d := c.backoff << (attempt - 1)
	fromServer := false
	if retryAfter != "" {
		if secs, err := strconv.Atoi(retryAfter); err == nil && secs >= 0 {
			d = time.Duration(secs) * time.Second
			fromServer = true
		}
	}
	if d > c.maxWait {
		d = c.maxWait
	}
	if c.rng != nil && d > 0 {
		if fromServer {
			d += c.rng.durationN(d / 4)
		} else {
			d = d/2 + c.rng.durationN(d/2)
		}
	}
	return d
}

// do runs one request with retries, decoding a 2xx answer into out.
// Clients are safe for concurrent use.
func (c *Client) do(method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("graphd: encoding request: %w", err)
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		// retry, when non-nil, records that this attempt failed
		// retryably and how long to wait before the next one.
		retry := func(err error, retryAfter string) error {
			lastErr = err
			if attempt >= c.retries {
				return fmt.Errorf("graphd: giving up after %d attempts: %w", attempt+1, lastErr)
			}
			time.Sleep(c.retryDelay(attempt+1, retryAfter))
			return nil
		}
		if c.br != nil && !c.br.allow() {
			// Fail fast without touching the network; the retry sleep
			// doubles as the cooldown wait before the half-open probe.
			if gerr := retry(errBreakerOpen, ""); gerr != nil {
				return gerr
			}
			continue
		}
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequest(method, c.base+path, rd)
		if err != nil {
			return fmt.Errorf("graphd: building request: %w", err)
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			// Transport failure: the server may be mid-restart; retry.
			if c.br != nil {
				c.br.failure()
			}
			if gerr := retry(err, ""); gerr != nil {
				return gerr
			}
			continue
		}
		if c.br != nil {
			// Any HTTP answer proves the host is alive — even a 503.
			c.br.success()
		}
		raw, rerr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
		if rerr != nil {
			if gerr := retry(rerr, ""); gerr != nil {
				return gerr
			}
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			if gerr := retry(decodeAPIError(resp.StatusCode, raw), resp.Header.Get("Retry-After")); gerr != nil {
				return gerr
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			// Anything else non-2xx is not retryable: 4xx means the
			// request is wrong, 5xx that the query itself failed.
			return decodeAPIError(resp.StatusCode, raw)
		}
		if out == nil {
			return nil
		}
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("graphd: decoding response: %w", err)
		}
		return nil
	}
}

// decodeAPIError turns a non-2xx body into an *APIError, falling back
// to the raw body when it is not the ErrorResponse shape.
func decodeAPIError(status int, raw []byte) error {
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err == nil && er.Error != "" {
		return &APIError{Status: status, Message: er.Error}
	}
	return &APIError{Status: status, Message: strings.TrimSpace(string(raw))}
}

// BFS runs a single-source BFS query (batched server-side). With
// hedging armed (WithHedge), a query still unanswered past the usual
// latency races one duplicate and the first success wins.
func (c *Client) BFS(req BFSRequest) (*BFSResponse, error) {
	if c.hedge == nil {
		var resp BFSResponse
		if err := c.do(http.MethodPost, "/v1/bfs", req, &resp); err != nil {
			return nil, err
		}
		return &resp, nil
	}
	return c.hedgedBFS(req)
}

// Hedged reports how many duplicate hedge requests this client has
// fired (0 when hedging is off).
func (c *Client) Hedged() int64 {
	if c.hedge == nil {
		return 0
	}
	return c.hedge.Hedged()
}

// hedgedBFS races up to two identical BFS requests. BFS is an
// idempotent read, so the duplicate is safe; the loser's answer is
// discarded. Both attempts still get the full retry treatment of do.
func (c *Client) hedgedBFS(req BFSRequest) (*BFSResponse, error) {
	type out struct {
		resp *BFSResponse
		err  error
	}
	t0 := time.Now()
	ch := make(chan out, 2)
	run := func() {
		var resp BFSResponse
		if err := c.do(http.MethodPost, "/v1/bfs", req, &resp); err != nil {
			ch <- out{nil, err}
			return
		}
		ch <- out{&resp, nil}
	}
	go run()
	timer := time.NewTimer(c.hedge.delay())
	defer timer.Stop()
	launched, answered := 1, 0
	var firstErr error
	for {
		select {
		case o := <-ch:
			answered++
			if o.err == nil {
				c.hedge.observe(time.Since(t0))
				return o.resp, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if answered == launched {
				return nil, firstErr
			}
		case <-timer.C:
			if launched == 1 {
				launched = 2
				c.hedge.hedged.Add(1)
				go run()
			}
		}
	}
}

// Path asks for one shortest path.
func (c *Client) Path(req PathRequest) (*PathResponse, error) {
	var resp PathResponse
	if err := c.do(http.MethodPost, "/v1/path", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SSSP runs a Δ-stepping distance query.
func (c *Client) SSSP(req SSSPRequest) (*SSSPResponse, error) {
	var resp SSSPResponse
	if err := c.do(http.MethodPost, "/v1/sssp", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches the service statistics.
func (c *Client) Stats() (*StatsResponse, error) {
	var resp StatsResponse
	if err := c.do(http.MethodGet, "/v1/stats", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Metrics fetches the text metrics snapshot.
func (c *Client) Metrics() (string, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", decodeAPIError(resp.StatusCode, raw)
	}
	return string(raw), nil
}

// Healthz checks liveness (nil means the server answered 200).
func (c *Client) Healthz() error {
	return c.do(http.MethodGet, "/healthz", nil, nil)
}
