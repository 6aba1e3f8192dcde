// Command graphload is the deterministic load generator for graphd: a
// seeded mix of BFS / path / SSSP queries fired as fast as a pool of
// concurrent workers goes, with per-kind latency histograms and
// optional oracle verification of every answer (the generator rebuilds
// the server's graph locally from the same -n/-k/-graph-seed and checks
// each response against serial BFS / Dijkstra).
//
// The query stream is a pure function of -seed: the same seed, count,
// and mix produce the same queries in the same order, so a smoke run is
// reproducible end to end.
//
// Usage:
//
//	graphload -addr 127.0.0.1:8080 -queries 500 -concurrency 16
//	graphload -addr $(cat /tmp/graphd.port) -queries 120 -seed 7 \
//	    -mix bfs=6,path=1,sssp=1 -verify -n 20000 -k 10 -graph-seed 42 -weighted \
//	    -expect-batching -check-metrics
//	graphload -addr $(cat /tmp/graphd.port) -chaos -verify \
//	    -deadline-every 25 -deadline-ms 1 -expect-faults
//
// Chaos mode (-chaos) turns the generator into the chaos drill's
// client half: the resilient client features (seeded retry jitter, a
// circuit breaker, hedged BFS) are armed, and after the stream drains
// the run asserts the server actually went through the wringer and
// came back — at least one replica panic, every quarantined replica
// rebuilt, and a final query served off the recovered fleet.
// -deadline-every N makes every Nth query a deadline probe sent with
// a tiny timeout_ms that must come back 504 (never a hang, never a
// 500); -expect-faults requires the server to report injected faults.
//
// Exit status is non-zero on any failed query, failed verification, or
// failed -expect-batching / -check-metrics / chaos assertion.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	bgl "repro"
	"repro/internal/graphd"
	"repro/internal/metrics"
)

// splitmix64 is the seeded generator behind the query stream — tiny,
// deterministic, and identical across platforms.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// query is one planned request. A deadline probe carries a tiny
// timeout_ms and expects a 504 instead of an answer.
type query struct {
	kind     string // bfs | path | sssp
	source   int
	target   int
	deadline bool
}

// oracle lazily computes and caches serial answers per source.
type oracle struct {
	g    *bgl.Graph
	mu   sync.Mutex
	bfs  map[int][]int32
	dijk map[int][]uint32
}

func (o *oracle) levels(src int) []int32 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if l, ok := o.bfs[src]; ok {
		return l
	}
	l := o.g.SerialBFS(bgl.Vertex(src))
	o.bfs[src] = l
	return l
}

func (o *oracle) dists(src int) []uint32 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if d, ok := o.dijk[src]; ok {
		return d
	}
	d := o.g.SerialDijkstra(bgl.Vertex(src))
	o.dijk[src] = d
	return d
}

// options is graphload's command line.
type options struct {
	addr                      string
	queries, concurrency      int
	seed                      uint64
	mix                       []string
	verify                    bool
	n                         int
	k                         float64
	graphSeed                 int64
	weighted                  bool
	checkMetrics              bool
	expectBatching            bool
	chaos                     bool
	deadlineEvery, deadlineMS int
	expectFaults              bool
}

// config parses the command line. The flag package reports usage errors
// on stderr; a flag value out of range is returned as an error.
func config(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("graphload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "graphd address (host:port or full http:// URL)")
		queries     = fs.Int("queries", 200, "total queries to send")
		concurrency = fs.Int("concurrency", 8, "concurrent workers")
		seed        = fs.Uint64("seed", 1, "query-stream seed")
		mix         = fs.String("mix", "bfs=6,path=1,sssp=1", "query mix as kind=weight pairs")
		verify      = fs.Bool("verify", false, "verify every answer against the serial oracles (needs -n/-k/-graph-seed to match the server)")
		n           = fs.Int("n", 100000, "server graph vertices (query range; oracle rebuild under -verify)")
		k           = fs.Float64("k", 10, "server graph average degree (oracle rebuild)")
		graphSeed   = fs.Int64("graph-seed", 42, "server graph seed (oracle rebuild)")
		weighted    = fs.Bool("weighted", false, "the server graph is weighted (oracle rebuild)")
		checkMet    = fs.Bool("check-metrics", false, "fetch /metrics afterwards and require the graphd instruments")
		expectBatch = fs.Bool("expect-batching", false, "require the server to have coalesced queries (mean batch size > 1)")
		chaos       = fs.Bool("chaos", false, "chaos drill: arm the resilient client and assert panic+quarantine+rebuild recovery afterwards")
		deadEvery   = fs.Int("deadline-every", 0, "make every Nth query a deadline probe that must answer 504 (0 = none)")
		deadMS      = fs.Int("deadline-ms", 1, "timeout_ms carried by deadline probes")
		expectFault = fs.Bool("expect-faults", false, "require the server to report injected communication faults")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o := options{
		addr: *addr, queries: *queries, concurrency: *concurrency, seed: *seed,
		verify: *verify, n: *n, k: *k, graphSeed: *graphSeed, weighted: *weighted,
		checkMetrics: *checkMet, expectBatching: *expectBatch, chaos: *chaos,
		deadlineEvery: *deadEvery, deadlineMS: *deadMS, expectFaults: *expectFault,
	}
	var err error
	if o.mix, err = parseMix(*mix); err != nil {
		return o, err
	}
	switch {
	case o.queries <= 0 || o.concurrency <= 0:
		return o, errors.New("-queries and -concurrency must be positive")
	case o.n <= 0:
		return o, errors.New("-n must be positive")
	case o.deadlineEvery < 0 || o.deadlineMS <= 0:
		return o, errors.New("-deadline-every must be >= 0 and -deadline-ms positive")
	}
	return o, nil
}

// plan draws the whole query stream up front: a pure function of the
// seed, count, mix and -n. Deadline probes ride the same stream — every
// Nth planned query is flagged, consuming no extra randomness, so
// -deadline-every does not perturb the other queries.
func plan(o options) []query {
	rng := splitmix64(o.seed)
	qs := make([]query, o.queries)
	for i := range qs {
		qs[i] = query{
			kind:   o.mix[rng.next()%uint64(len(o.mix))],
			source: int(rng.next() % uint64(o.n)),
			target: int(rng.next() % uint64(o.n)),
		}
		qs[i].deadline = o.deadlineEvery > 0 && (i+1)%o.deadlineEvery == 0
	}
	return qs
}

func main() {
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "graphload: "+format+"\n", args...)
		os.Exit(1)
	}
	o, err := config(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	} else if err != nil {
		fail("%v", err)
	}

	var orc *oracle
	if o.verify {
		var g *bgl.Graph
		if o.weighted {
			g, err = bgl.GenerateWeighted(o.n, o.k, o.graphSeed)
		} else {
			g, err = bgl.Generate(o.n, o.k, o.graphSeed)
		}
		if err != nil {
			fail("rebuilding the oracle graph: %v", err)
		}
		orc = &oracle{g: g, bfs: map[int][]int32{}, dijk: map[int][]uint32{}}
	}

	queries := plan(o)
	nProbes := 0
	for _, q := range queries {
		if q.deadline {
			nProbes++
		}
	}

	base := o.addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	copts := []graphd.ClientOption{graphd.WithTimeout(2 * time.Minute), graphd.WithRetries(3)}
	if o.chaos {
		// The drill's client half: jittered backoff is already on by
		// default; add the breaker (fail fast if the server dies
		// outright) and hedged BFS (mask a straggling replica).
		copts = append(copts,
			graphd.WithJitterSeed(o.seed),
			graphd.WithBreaker(5, 500*time.Millisecond),
			graphd.WithHedge(0.95, 50*time.Millisecond),
		)
	}
	client := graphd.NewClient(base, copts...)
	if err := client.Healthz(); err != nil {
		fail("server not healthy at %s: %v", base, err)
	}

	reg := metrics.NewRegistry()
	var failures, tripped atomic.Int64
	work := make(chan query)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < o.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range work {
				t0 := time.Now()
				var err error
				if q.deadline {
					err = runDeadlineProbe(client, q, o.deadlineMS, &tripped)
				} else {
					err = runQuery(client, q, orc)
				}
				lat := time.Since(t0).Seconds()
				reg.Histogram("graphload_latency_seconds", metrics.TimeBuckets).Observe(lat)
				reg.Histogram("graphload_"+q.kind+"_latency_seconds", metrics.TimeBuckets).Observe(lat)
				if err != nil {
					failures.Add(1)
					fmt.Fprintf(os.Stderr, "graphload: %s source=%d target=%d: %v\n", q.kind, q.source, q.target, err)
				}
			}
		}()
	}
	for _, q := range queries {
		work <- q
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	total := reg.Histogram("graphload_latency_seconds", metrics.TimeBuckets)
	fmt.Printf("graphload: %d queries in %v (%.1f QPS, %d workers, %d failed)\n",
		o.queries, elapsed.Round(time.Millisecond), float64(o.queries)/elapsed.Seconds(), o.concurrency, failures.Load())
	for _, kind := range []string{"bfs", "path", "sssp"} {
		h := reg.Histogram("graphload_"+kind+"_latency_seconds", metrics.TimeBuckets)
		if h.Count() == 0 {
			continue
		}
		fmt.Printf("  %-4s  n=%-5d mean=%8.2fms  p50<=%s  p95<=%s\n",
			kind, h.Count(), 1e3*h.Sum()/float64(h.Count()), quantileBound(h, 0.50), quantileBound(h, 0.95))
	}
	fmt.Printf("  all   n=%-5d mean=%8.2fms  p50<=%s  p95<=%s\n",
		total.Count(), 1e3*total.Sum()/float64(total.Count()), quantileBound(total, 0.50), quantileBound(total, 0.95))

	st, err := client.Stats()
	if err != nil {
		fail("fetching /v1/stats: %v", err)
	}
	fmt.Printf("  server: %d bfs over %d sweeps (mean batch %.2f), %d path, %d sssp, %d rejected\n",
		st.Queries.BFS, st.Queries.Batches, st.Queries.MeanBatchSize, st.Queries.Path, st.Queries.SSSP, st.Queries.Rejected)
	if nProbes > 0 {
		fmt.Printf("  deadline probes: %d sent, %d answered 504 (server counted %d)\n",
			nProbes, tripped.Load(), st.Queries.DeadlineExceeded)
	}

	if o.expectBatching && st.Queries.MeanBatchSize <= 1 {
		fail("expected batching, but the server's mean batch size is %.2f (%d queries over %d sweeps)",
			st.Queries.MeanBatchSize, st.Queries.BatchedQueries, st.Queries.Batches)
	}
	if o.checkMetrics {
		text, err := client.Metrics()
		if err != nil {
			fail("fetching /metrics: %v", err)
		}
		for _, name := range []string{
			"graphd_queries_total", "graphd_batches_total",
			"graphd_batch_lanes", "graphd_latency_seconds",
		} {
			if !strings.Contains(text, name) {
				fail("/metrics is missing %s", name)
			}
		}
	}
	if o.expectFaults {
		if st.Faults == nil || st.Faults.Injected == 0 {
			fail("expected injected faults, but the server reports none (is -fault set on graphd?)")
		}
		fmt.Printf("  faults: plan %q injected %d (%d retries, %d checksum fails)\n",
			st.Faults.Plan, st.Faults.Injected, st.Faults.Retries, st.Faults.ChecksumFails)
	}
	if o.chaos {
		chaosAssert(client, fail)
	}
	if failures.Load() > 0 {
		fail("%d of %d queries failed", failures.Load(), o.queries)
	}
	if o.verify {
		fmt.Printf("  verified %d answers against the serial oracles: OK\n", o.queries-nProbes)
	}
}

// chaosAssert verifies the server went through the wringer and came
// back: at least one replica panic was recorded, every quarantined
// replica was rebuilt (polled, since the supervisor rebuilds in the
// background), and the recovered fleet still answers.
func chaosAssert(c *graphd.Client, fail func(string, ...any)) {
	deadline := time.Now().Add(30 * time.Second)
	var st *graphd.StatsResponse
	for {
		var err error
		if st, err = c.Stats(); err != nil {
			fail("chaos: fetching /v1/stats: %v", err)
		}
		if st.Replicas.Quarantined == 0 && st.Replicas.Live >= st.Replicas.Configured {
			break
		}
		if time.Now().After(deadline) {
			fail("chaos: %d replica(s) still quarantined (%d/%d live) after 30s; the supervisor never rebuilt them",
				st.Replicas.Quarantined, st.Replicas.Live, st.Replicas.Configured)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if st.Replicas.Panics == 0 {
		fail("chaos: the server recorded no replica panics; the drill never fired (is -chaos-panic-sweep armed?)")
	}
	if st.Replicas.Rebuilds == 0 {
		fail("chaos: %d panic(s) but zero rebuilds; quarantined replicas were never restored", st.Replicas.Panics)
	}
	if err := c.Healthz(); err != nil {
		fail("chaos: /healthz after recovery: %v", err)
	}
	src := 0
	if _, err := c.BFS(graphd.BFSRequest{Source: &src}); err != nil {
		fail("chaos: the recovered fleet failed a fresh BFS: %v", err)
	}
	fmt.Printf("  chaos: %d panic(s), %d rebuild(s), %d/%d replicas live: recovered OK\n",
		st.Replicas.Panics, st.Replicas.Rebuilds, st.Replicas.Live, st.Replicas.Configured)
}

// runDeadlineProbe sends q's kind with a tiny timeout_ms and requires
// a 504: the server must cut the query cooperatively at a boundary. A
// normal answer means the deadline was ignored; any other status — or
// a hang, caught by the client's own timeout — is a real failure.
func runDeadlineProbe(c *graphd.Client, q query, ms int, tripped *atomic.Int64) error {
	var err error
	switch q.kind {
	case "bfs":
		_, err = c.BFS(graphd.BFSRequest{Source: &q.source, Target: &q.target, TimeoutMS: ms})
	case "path":
		_, err = c.Path(graphd.PathRequest{Source: &q.source, Target: &q.target, TimeoutMS: ms})
	case "sssp":
		_, err = c.SSSP(graphd.SSSPRequest{Source: &q.source, Target: &q.target, TimeoutMS: ms})
	default:
		return fmt.Errorf("unknown query kind %q", q.kind)
	}
	if err == nil {
		return fmt.Errorf("deadline probe (timeout_ms=%d) was answered instead of cut with a 504", ms)
	}
	var ae *graphd.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusGatewayTimeout {
		return fmt.Errorf("deadline probe: want a 504, got %w", err)
	}
	tripped.Add(1)
	return nil
}

// parseMix expands "bfs=6,path=1,sssp=1" into a weighted pick table.
func parseMix(s string) ([]string, error) {
	var mix []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		kind := strings.TrimSpace(kv[0])
		switch kind {
		case "bfs", "path", "sssp":
		default:
			return nil, fmt.Errorf("unknown query kind %q in -mix", kind)
		}
		w := 1
		if len(kv) == 2 {
			var err error
			if w, err = strconv.Atoi(strings.TrimSpace(kv[1])); err != nil || w < 0 {
				return nil, fmt.Errorf("bad weight %q for %q in -mix", kv[1], kind)
			}
		}
		for i := 0; i < w; i++ {
			mix = append(mix, kind)
		}
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("-mix %q selects no queries", s)
	}
	return mix, nil
}

// runQuery executes one planned query and, when orc is non-nil, checks
// the answer against the serial oracle.
func runQuery(c *graphd.Client, q query, orc *oracle) error {
	switch q.kind {
	case "bfs":
		resp, err := c.BFS(graphd.BFSRequest{Source: &q.source, Target: &q.target})
		if err != nil {
			return err
		}
		if orc != nil {
			want := orc.levels(q.source)
			reached := 0
			for _, l := range want {
				if l != bgl.Unreached {
					reached++
				}
			}
			if resp.Reached != reached {
				return fmt.Errorf("reached %d, oracle %d", resp.Reached, reached)
			}
			if resp.Distance == nil || *resp.Distance != want[q.target] {
				return fmt.Errorf("distance %v, oracle %d", resp.Distance, want[q.target])
			}
		}
	case "path":
		resp, err := c.Path(graphd.PathRequest{Source: &q.source, Target: &q.target})
		if err != nil {
			return err
		}
		if orc != nil {
			want := orc.levels(q.source)[q.target]
			if resp.Found != (want != bgl.Unreached) {
				return fmt.Errorf("found=%v, oracle level %d", resp.Found, want)
			}
			if resp.Found && resp.Distance != want {
				return fmt.Errorf("path length %d, oracle %d", resp.Distance, want)
			}
		}
	case "sssp":
		resp, err := c.SSSP(graphd.SSSPRequest{Source: &q.source, Target: &q.target})
		if err != nil {
			return err
		}
		if orc != nil {
			want := orc.dists(q.source)[q.target]
			if resp.Distance == nil || *resp.Distance != want {
				return fmt.Errorf("sssp distance %v, oracle %d", resp.Distance, want)
			}
		}
	default:
		return fmt.Errorf("unknown query kind %q", q.kind)
	}
	return nil
}

// quantileBound reports the histogram bucket bound covering quantile q
// — the resolution the fixed TimeBuckets give without storing samples.
func quantileBound(h *metrics.Histogram, q float64) string {
	bounds, cum := h.Buckets()
	total := h.Count()
	if total == 0 {
		return "n/a"
	}
	rank := int64(q * float64(total))
	i := sort.Search(len(cum), func(i int) bool { return cum[i] > rank })
	if i >= len(bounds) {
		return "+Inf"
	}
	return fmt.Sprintf("%gms", 1e3*bounds[i])
}
