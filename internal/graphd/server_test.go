package graphd

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	bgl "repro"
	"repro/internal/graph"
)

// startHTTP mounts the server on a test listener and returns the shared
// typed client pointed at it.
func startHTTP(t *testing.T, s *Server) (*httptest.Server, *Client) {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL, WithTimeout(2*time.Minute), WithRetries(0))
}

func intp(v int) *int { return &v }

// TestServerEndToEnd drives every endpoint through the shared client
// and checks each answer against the serial oracles.
func TestServerEndToEnd(t *testing.T) {
	g, err := bgl.GenerateWeighted(300, 6, 5)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	s := newTestServer(t, g, nil)
	_, cl := startHTTP(t, s)

	if err := cl.Healthz(); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	wantLevels := g.SerialBFS(1)
	bres, err := cl.BFS(BFSRequest{Source: intp(1), Target: intp(200), Levels: true})
	if err != nil {
		t.Fatalf("bfs: %v", err)
	}
	wantReached := 0
	for v, l := range wantLevels {
		if l != bgl.Unreached {
			wantReached++
		}
		if bres.Levels[v] != l {
			t.Fatalf("bfs levels[%d] = %d, oracle %d", v, bres.Levels[v], l)
		}
	}
	if bres.Reached != wantReached {
		t.Fatalf("bfs reached %d, oracle %d", bres.Reached, wantReached)
	}
	if bres.Found == nil || bres.Distance == nil {
		t.Fatal("bfs with target: found/distance missing from answer")
	}
	if want := wantLevels[200]; *bres.Distance != want || *bres.Found != (want != bgl.Unreached) {
		t.Fatalf("bfs target: found=%v distance=%d, oracle level %d", *bres.Found, *bres.Distance, want)
	}
	if bres.Stats.BatchSize < 1 || bres.Stats.Words <= 0 {
		t.Fatalf("bfs stats not filled: %+v", bres.Stats)
	}

	pres, err := cl.Path(PathRequest{Source: intp(0), Target: intp(250)})
	if err != nil {
		t.Fatalf("path: %v", err)
	}
	hops := g.SerialBFS(0)[250]
	if !pres.Found || pres.Distance != hops {
		t.Fatalf("path 0→250: found=%v distance=%d, oracle hop distance %d", pres.Found, pres.Distance, hops)
	}
	if len(pres.Path) != int(hops)+1 || pres.Path[0] != 0 || pres.Path[len(pres.Path)-1] != 250 {
		t.Fatalf("path endpoints/length wrong: %v (want %d hops 0→250)", pres.Path, hops)
	}
	for i := 0; i+1 < len(pres.Path); i++ {
		adjacent := false
		for _, nb := range g.Neighbors(bgl.Vertex(pres.Path[i])) {
			if int(nb) == pres.Path[i+1] {
				adjacent = true
				break
			}
		}
		if !adjacent {
			t.Fatalf("path step %d→%d is not an edge", pres.Path[i], pres.Path[i+1])
		}
	}

	wantDist := g.SerialDijkstra(2)
	sres, err := cl.SSSP(SSSPRequest{Source: intp(2), Target: intp(123), Dists: true})
	if err != nil {
		t.Fatalf("sssp: %v", err)
	}
	for v, d := range wantDist {
		if sres.Dists[v] != d {
			t.Fatalf("sssp dist[%d] = %d, oracle %d", v, sres.Dists[v], d)
		}
	}
	if sres.Found == nil || sres.Distance == nil || *sres.Distance != wantDist[123] {
		t.Fatalf("sssp target answer wrong: %+v (oracle %d)", sres, wantDist[123])
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Queries.BFS != 1 || st.Queries.Path != 1 || st.Queries.SSSP != 1 {
		t.Fatalf("query counts %+v, want 1 of each", st.Queries)
	}
	if st.Graph.N != 300 || !st.Graph.Weighted || st.Graph.Mesh != "2x2" {
		t.Fatalf("graph info wrong: %+v", st.Graph)
	}
	if st.Queries.Inflight != 0 {
		t.Fatalf("inflight %d after all queries answered", st.Queries.Inflight)
	}

	text, err := cl.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, name := range []string{"graphd_queries_total", "graphd_batches_total", "graphd_latency_seconds"} {
		if !strings.Contains(text, name) {
			t.Fatalf("metrics snapshot missing %s:\n%s", name, text)
		}
	}
}

// TestServerUnreachable: an unreachable target is an answer (200 with
// found=false), never an error.
func TestServerUnreachable(t *testing.T) {
	g, err := bgl.FromEdges(6, [][2]bgl.Vertex{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	if err != nil {
		t.Fatalf("from edges: %v", err)
	}
	s := newTestServer(t, g, nil)
	_, cl := startHTTP(t, s)

	bres, err := cl.BFS(BFSRequest{Source: intp(0), Target: intp(5)})
	if err != nil {
		t.Fatalf("bfs: %v", err)
	}
	if bres.Found == nil || *bres.Found || *bres.Distance != bgl.Unreached {
		t.Fatalf("bfs to other component: %+v, want found=false distance=%d", bres, bgl.Unreached)
	}

	pres, err := cl.Path(PathRequest{Source: intp(0), Target: intp(5)})
	if err != nil {
		t.Fatalf("path: %v", err)
	}
	if pres.Found || len(pres.Path) != 0 || pres.Distance != -1 {
		t.Fatalf("path to other component: %+v, want found=false, no path", pres)
	}

	sres, err := cl.SSSP(SSSPRequest{Source: intp(0), Target: intp(5)})
	if err != nil {
		t.Fatalf("sssp: %v", err)
	}
	if sres.Found == nil || *sres.Found || *sres.Distance != graph.MaxDist {
		t.Fatalf("sssp to other component: %+v, want found=false distance=MaxDist", sres)
	}
	if sres.Reached != 3 {
		t.Fatalf("sssp reached %d vertices, component has 3", sres.Reached)
	}
}

// TestServerValidation: bad requests get descriptive 4xx JSON answers,
// never a 500 and never a panic.
func TestServerValidation(t *testing.T) {
	g := testGraph(t, 400)
	s := newTestServer(t, g, nil)
	ts, _ := startHTTP(t, s)

	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantSubstr               string
	}{
		{"malformed json", "POST", "/v1/bfs", `{`, 400, "malformed"},
		{"unknown field", "POST", "/v1/bfs", `{"source":1,"bogus":true}`, 400, "bogus"},
		{"missing source", "POST", "/v1/bfs", `{}`, 400, `missing "source"`},
		{"source too large", "POST", "/v1/bfs", `{"source":100000}`, 400, "out of range"},
		{"source negative", "POST", "/v1/bfs", `{"source":-1}`, 400, "out of range"},
		{"target too large", "POST", "/v1/bfs", `{"source":1,"target":100000}`, 400, "out of range"},
		{"trailing data", "POST", "/v1/bfs", `{"source":1} {"source":2}`, 400, "trailing"},
		{"wrong type", "POST", "/v1/bfs", `{"source":"zero"}`, 400, "malformed"},
		{"bfs needs POST", "GET", "/v1/bfs", ``, 405, "needs POST"},
		{"path missing target", "POST", "/v1/path", `{"source":1}`, 400, `missing "target"`},
		{"path missing source", "POST", "/v1/path", `{"target":1}`, 400, `missing "source"`},
		{"path unknown field", "POST", "/v1/path", `{"source":1,"target":2,"levels":true}`, 400, "levels"},
		{"sssp negative delta", "POST", "/v1/sssp", `{"source":1,"delta":-3}`, 400, "malformed"},
		{"sssp source too large", "POST", "/v1/sssp", `{"source":12345678}`, 400, "out of range"},
		{"stats needs GET", "POST", "/v1/stats", `{}`, 405, "needs GET"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("request: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
				t.Fatalf("error answer content-type %q, want JSON", ct)
			}
			apiErr, ok := decodeAPIError(resp.StatusCode, readAll(t, resp)).(*APIError)
			if !ok || apiErr.Message == "" {
				t.Fatalf("error body is not an ErrorResponse: %+v", apiErr)
			}
			if !strings.Contains(apiErr.Message, tc.wantSubstr) {
				t.Fatalf("error %q does not mention %q", apiErr.Message, tc.wantSubstr)
			}
		})
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	buf := make([]byte, 0, 512)
	tmp := make([]byte, 512)
	for {
		n, err := resp.Body.Read(tmp)
		buf = append(buf, tmp[:n]...)
		if err != nil {
			return buf
		}
	}
}

// TestServerConfigErrors: impossible configurations fail NewServer with
// a descriptive error, including the Distribute-style ones the engine
// itself diagnoses.
func TestServerConfigErrors(t *testing.T) {
	small, err := bgl.FromEdges(6, [][2]bgl.Vertex{{0, 1}, {2, 3}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		cfg        Config
		wantSubstr string
	}{
		{"nil graph", Config{}, "needs a graph"},
		{"mesh larger than graph", Config{Graph: small, R: 4, C: 4}, "more ranks"},
		{"batch above lane cap", Config{Graph: small, MaxBatch: bgl.MaxLanes + 1}, "lane capacity"},
		{"negative replicas", Config{Graph: small, Replicas: -2}, "negative replica"},
		{"negative mesh", Config{Graph: small, R: -1, C: 2}, "mesh must be positive"},
		{"negative backlog", Config{Graph: small, MaxWaiting: -1}, "non-negative"},
		{"negative cores", Config{Graph: small, Cores: -2}, "negative core or worker count"},
		{"negative workers", Config{Graph: small, Workers: -3}, "negative core or worker count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewServer(tc.cfg)
			if err == nil {
				s.Close()
				t.Fatal("NewServer accepted an impossible config")
			}
			if !strings.Contains(err.Error(), tc.wantSubstr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSubstr)
			}
		})
	}
}

// TestPoolSizeHonorsWorkers: Workers sizes the real pool whenever it is
// set. `-cores 2 -workers 1` used to run two workers, because only
// Workers > 1 was applied on top of WithCores, which sets both.
func TestPoolSizeHonorsWorkers(t *testing.T) {
	for _, tc := range []struct{ cores, workers, want int }{
		{0, 0, 1}, {1, 0, 1}, {2, 0, 2}, {2, 1, 1}, {1, 4, 4}, {4, 2, 2},
	} {
		if got := (Config{Cores: tc.cores, Workers: tc.workers}).poolSize(); got != tc.want {
			t.Errorf("cores %d workers %d: pool of %d, want %d", tc.cores, tc.workers, got, tc.want)
		}
	}
}

// TestServerBacklogBoundsEveryKind: the one admission bound counts
// queries of every kind. With the lone engine held, a waiting path query
// fills MaxWaiting = 1, and BFS and SSSP queries are then rejected with
// 503 + Retry-After instead of queueing without bound.
func TestServerBacklogBoundsEveryKind(t *testing.T) {
	g := testGraph(t, 400)
	s := newTestServer(t, g, func(c *Config) { c.MaxWaiting = 1 })
	ts, cl := startHTTP(t, s)

	release := holdEngines(s)
	waiting := make(chan error, 1)
	go func() {
		_, err := cl.Path(PathRequest{Source: intp(1), Target: intp(2)})
		waiting <- err
	}()
	awaitWaiting(t, s, 1)
	for _, probe := range []struct{ path, body string }{
		{"/v1/bfs", `{"source":4}`},
		{"/v1/sssp", `{"source":4}`},
	} {
		resp, err := http.Post(ts.URL+probe.path, "application/json", strings.NewReader(probe.body))
		if err != nil {
			release()
			t.Fatalf("%s: %v", probe.path, err)
		}
		body := readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "backlog full") {
			release()
			t.Fatalf("%s behind a waiting path query: status %d (body %s), want 503 backlog full", probe.path, resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			release()
			t.Fatalf("%s: Retry-After %q, want %q", probe.path, ra, "1")
		}
	}
	release()
	if err := <-waiting; err != nil {
		t.Fatalf("the waiting path query failed once the engine freed up: %v", err)
	}
	if got := s.nRejected.Value(); got != 2 {
		t.Fatalf("rejected counter %d, want 2", got)
	}
}

// TestServerBacklogBoundExact: the bound holds under concurrent
// arrivals. With the lone engine held and MaxWaiting = 4, 16 concurrent
// queries of mixed kinds get exactly 12 answers of 503 backlog full,
// then exactly 4 answers of 200 once the engine is released.
func TestServerBacklogBoundExact(t *testing.T) {
	g, err := bgl.GenerateWeighted(300, 6, 5)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	s := newTestServer(t, g, func(c *Config) { c.MaxWaiting = 4 })
	ts, _ := startHTTP(t, s)

	release := holdEngines(s)
	type answer struct {
		code int
		body []byte
	}
	answers := make(chan answer, 16)
	for i := 0; i < 16; i++ {
		path, body := [3]string{"/v1/bfs", "/v1/path", "/v1/sssp"}[i%3], fmt.Sprintf(`{"source":%d,"target":%d}`, i, 299-i)
		go func() {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				answers <- answer{0, []byte(err.Error())}
				return
			}
			defer resp.Body.Close()
			answers <- answer{resp.StatusCode, readAll(t, resp)}
		}()
	}
	recv := func() answer {
		select {
		case a := <-answers:
			return a
		case <-time.After(30 * time.Second):
			release()
			t.Fatal("no answer within 30s")
			panic("unreachable")
		}
	}
	for i := 0; i < 12; i++ {
		if a := recv(); a.code != http.StatusServiceUnavailable || !strings.Contains(string(a.body), "backlog full") {
			release()
			t.Fatalf("answer %d with the engine held: status %d (body %s), want 503 backlog full", i, a.code, a.body)
		}
	}
	if got := s.waiting.Load(); got != 4 {
		release()
		t.Fatalf("%d queries waiting after 12 rejections, want 4", got)
	}
	release()
	for i := 0; i < 4; i++ {
		if a := recv(); a.code != http.StatusOK {
			t.Fatalf("admitted query answered status %d (body %s), want 200", a.code, a.body)
		}
	}
}

// TestSinglesAndSweepsMatchSerialBFS: the levels a query gets are the
// serial oracle's whichever way the dispatcher served it — alone (a
// direction-optimizing BFS) or riding a 64-lane MultiBFS sweep — on a
// 2x2 and a 1x1 mesh and under both 1D partitionings, under a fault
// plan, and its QueryStats report the run that actually happened.
func TestSinglesAndSweepsMatchSerialBFS(t *testing.T) {
	g := testGraph(t, 600)
	srcs := make([]bgl.Vertex, bgl.MaxLanes)
	want := make([][]int32, len(srcs))
	for i := range srcs {
		srcs[i] = bgl.Vertex((7 + 9*i) % g.N())
		want[i] = g.SerialBFS(srcs[i])
	}
	check := func(t *testing.T, i int, ans batchAnswer, size, lanes int) {
		t.Helper()
		if ans.err != nil {
			t.Fatalf("source %d: %v", srcs[i], ans.err)
		}
		if !slices.Equal(ans.levels, want[i]) {
			t.Fatalf("source %d (a %d-lane run): levels differ from SerialBFS", srcs[i], lanes)
		}
		if ans.stats.BatchSize != size || ans.stats.BatchLanes != lanes {
			t.Fatalf("source %d: stats report %d queries over %d lanes, ran %d over %d",
				srcs[i], ans.stats.BatchSize, ans.stats.BatchLanes, size, lanes)
		}
		if ans.stats.SimExecS <= 0 { // a 1x1 mesh moves no words
			t.Fatalf("source %d: run stats not filled: %+v", srcs[i], ans.stats)
		}
	}
	for _, tc := range []struct {
		name string
		mesh [2]int
		part bgl.Partition
	}{
		{"2x2", [2]int{2, 2}, bgl.Part2D},
		{"1x1", [2]int{1, 1}, bgl.Part2D},
		{"2x2-1dcol", [2]int{2, 2}, bgl.Part1DCol},
		{"2x2-1drow", [2]int{2, 2}, bgl.Part1DRow},
	} {
		mesh := tc.mesh
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, g, func(c *Config) {
				c.R, c.C = mesh[0], mesh[1]
				c.Partition = tc.part
				c.Fault = bgl.CannedFaultPlan(7)
			})
			// One at a time: the engine is idle, so each runs alone.
			var singleWords int64
			for i, src := range srcs {
				ch, err := s.batcher.submit(&batchQuery{source: src})
				if err != nil {
					t.Fatal(err)
				}
				ans := recvAnswer(t, ch)
				check(t, i, ans, 1, 1)
				singleWords += ans.stats.Words
			}
			// All 64 while the engine is busy: one full sweep.
			release := holdEngines(s)
			chans := make([]<-chan batchAnswer, len(srcs))
			for i, src := range srcs {
				ch, err := s.batcher.submit(&batchQuery{source: src})
				if err != nil {
					t.Fatal(err)
				}
				chans[i] = ch
			}
			release()
			var sweepWords int64
			for i, ch := range chans {
				ans := recvAnswer(t, ch)
				check(t, i, ans, len(srcs), len(srcs))
				sweepWords = ans.stats.Words
			}
			if got := s.batcher.Batches(); got != int64(len(srcs))+1 {
				t.Fatalf("%d runs, want %d singles and one sweep", got, len(srcs))
			}
			if mesh[0]*mesh[1] > 1 && sweepWords >= singleWords {
				t.Fatalf("the 64-lane sweep moved %d words, the 64 singles %d", sweepWords, singleWords)
			}
			if st := s.Stats(); st.Faults == nil || (mesh[0]*mesh[1] > 1 && st.Faults.Injected == 0) {
				t.Fatalf("fault plan left no trace in stats: %+v", st.Faults)
			}
		})
	}
}

// TestServerBatchBacklogFull: once MaxWaiting BFS queries are waiting
// on engines, further BFS queries are rejected with 503.
func TestServerBatchBacklogFull(t *testing.T) {
	g := testGraph(t, 400)
	s := newTestServer(t, g, func(c *Config) { c.MaxWaiting = 1 })
	ts, cl := startHTTP(t, s)

	e := <-s.engines // the only engine is busy: the first query waits
	first := make(chan error, 1)
	go func() {
		_, err := cl.BFS(BFSRequest{Source: intp(3)})
		first <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.waiting.Load() < 1 {
		if time.Now().After(deadline) {
			s.engines <- e
			t.Fatal("first BFS query never reached the batcher")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/v1/bfs", "application/json", strings.NewReader(`{"source":4}`))
	s.engines <- e // the engine frees up: the waiting query runs
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d with a full backlog, want 503 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After header")
	}
	if !strings.Contains(string(body), "backlog full") {
		t.Fatalf("rejection %s does not mention the backlog", body)
	}
	if err := <-first; err != nil {
		t.Fatalf("waiting BFS query failed once the engine freed up: %v", err)
	}
}

// TestServerDrain: a draining server refuses new work, but Close waits
// for admitted queries — here a path and an SSSP query waiting on a held
// engine, both answered 200.
func TestServerDrain(t *testing.T) {
	g := testGraph(t, 400)
	s := newTestServer(t, g, nil)
	ts, cl := startHTTP(t, s)

	if _, err := cl.BFS(BFSRequest{Source: intp(1)}); err != nil {
		t.Fatalf("warmup bfs: %v", err)
	}
	release := holdEngines(s)
	answered := make(chan error, 2)
	go func() {
		_, err := cl.Path(PathRequest{Source: intp(1), Target: intp(2)})
		answered <- err
	}()
	go func() {
		_, err := cl.SSSP(SSSPRequest{Source: intp(3)})
		answered <- err
	}()
	awaitWaiting(t, s, 2)
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	for !s.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	select {
	case <-closed:
		release()
		t.Fatal("Close returned while two admitted queries were still waiting")
	default:
	}
	release()
	for i := 0; i < 2; i++ {
		if err := <-answered; err != nil {
			t.Fatalf("admitted query during drain: %v", err)
		}
	}
	<-closed
	s.Close() // idempotent

	for _, probe := range []struct{ method, path, body string }{
		{"POST", "/v1/bfs", `{"source":1}`},
		{"POST", "/v1/path", `{"source":1,"target":2}`},
		{"POST", "/v1/sssp", `{"source":1}`},
		{"GET", "/healthz", ""},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, strings.NewReader(probe.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s during drain: %v", probe.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s answered %d on a draining server, want 503", probe.path, resp.StatusCode)
		}
	}
}
