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

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "graphd address (host:port or full http:// URL)")
		queries     = flag.Int("queries", 200, "total queries to send")
		concurrency = flag.Int("concurrency", 8, "concurrent workers")
		seed        = flag.Uint64("seed", 1, "query-stream seed")
		mixStr      = flag.String("mix", "bfs=6,path=1,sssp=1", "query mix as kind=weight pairs")
		verify      = flag.Bool("verify", false, "verify every answer against the serial oracles (needs -n/-k/-graph-seed to match the server)")
		n           = flag.Int("n", 100000, "server graph vertices (query range; oracle rebuild under -verify)")
		k           = flag.Float64("k", 10, "server graph average degree (oracle rebuild)")
		graphSeed   = flag.Int64("graph-seed", 42, "server graph seed (oracle rebuild)")
		weighted    = flag.Bool("weighted", false, "the server graph is weighted (oracle rebuild)")
		checkMet    = flag.Bool("check-metrics", false, "fetch /metrics afterwards and require the graphd instruments")
		expectBatch = flag.Bool("expect-batching", false, "require the server to have coalesced queries (mean batch size > 1)")
		chaos       = flag.Bool("chaos", false, "chaos drill: arm the resilient client and assert panic+quarantine+rebuild recovery afterwards")
		deadEvery   = flag.Int("deadline-every", 0, "make every Nth query a deadline probe that must answer 504 (0 = none)")
		deadMS      = flag.Int("deadline-ms", 1, "timeout_ms carried by deadline probes")
		expectFault = flag.Bool("expect-faults", false, "require the server to report injected communication faults")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "graphload: "+format+"\n", args...)
		os.Exit(1)
	}

	mix, err := parseMix(*mixStr)
	if err != nil {
		fail("%v", err)
	}
	if *queries <= 0 || *concurrency <= 0 {
		fail("-queries and -concurrency must be positive")
	}
	if *deadEvery < 0 || *deadMS <= 0 {
		fail("-deadline-every must be >= 0 and -deadline-ms positive")
	}

	var orc *oracle
	if *verify {
		var g *bgl.Graph
		var err error
		if *weighted {
			g, err = bgl.GenerateWeighted(*n, *k, *graphSeed)
		} else {
			g, err = bgl.Generate(*n, *k, *graphSeed)
		}
		if err != nil {
			fail("rebuilding the oracle graph: %v", err)
		}
		orc = &oracle{g: g, bfs: map[int][]int32{}, dijk: map[int][]uint32{}}
	}

	// Plan the whole stream up front: a pure function of the seed.
	// Deadline probes ride the same stream — every Nth planned query is
	// flagged, consuming no extra randomness, so -deadline-every does
	// not perturb the other queries.
	rng := splitmix64(*seed)
	plan := make([]query, *queries)
	nProbes := 0
	for i := range plan {
		plan[i] = query{
			kind:   mix[rng.next()%uint64(len(mix))],
			source: int(rng.next() % uint64(*n)),
			target: int(rng.next() % uint64(*n)),
		}
		if *deadEvery > 0 && (i+1)%*deadEvery == 0 {
			plan[i].deadline = true
			nProbes++
		}
	}

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	copts := []graphd.ClientOption{graphd.WithTimeout(2 * time.Minute), graphd.WithRetries(3)}
	if *chaos {
		// The drill's client half: jittered backoff is already on by
		// default; add the breaker (fail fast if the server dies
		// outright) and hedged BFS (mask a straggling replica).
		copts = append(copts,
			graphd.WithJitterSeed(*seed),
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
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range work {
				t0 := time.Now()
				var err error
				if q.deadline {
					err = runDeadlineProbe(client, q, *deadMS, &tripped)
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
	for _, q := range plan {
		work <- q
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	total := reg.Histogram("graphload_latency_seconds", metrics.TimeBuckets)
	fmt.Printf("graphload: %d queries in %v (%.1f QPS, %d workers, %d failed)\n",
		*queries, elapsed.Round(time.Millisecond), float64(*queries)/elapsed.Seconds(), *concurrency, failures.Load())
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

	if *expectBatch && st.Queries.MeanBatchSize <= 1 {
		fail("expected batching, but the server's mean batch size is %.2f (%d queries over %d sweeps)",
			st.Queries.MeanBatchSize, st.Queries.BatchedQueries, st.Queries.Batches)
	}
	if *checkMet {
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
	if *expectFault {
		if st.Faults == nil || st.Faults.Injected == 0 {
			fail("expected injected faults, but the server reports none (is -fault set on graphd?)")
		}
		fmt.Printf("  faults: plan %q injected %d (%d retries, %d checksum fails)\n",
			st.Faults.Plan, st.Faults.Injected, st.Faults.Retries, st.Faults.ChecksumFails)
	}
	if *chaos {
		chaosAssert(client, fail)
	}
	if failures.Load() > 0 {
		fail("%d of %d queries failed", failures.Load(), *queries)
	}
	if *verify {
		fmt.Printf("  verified %d answers against the serial oracles: OK\n", *queries-nProbes)
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
