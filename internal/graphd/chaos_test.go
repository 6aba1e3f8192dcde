package graphd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	bgl "repro"
)

// postJSON sends one raw POST and decodes the answer envelope, keeping
// status and body visible to assertions (the typed client hides 504
// bodies behind errors).
func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	raw := readAll(t, resp)
	resp.Body.Close()
	return resp.StatusCode, raw
}

// TestQueryDeadlineSimBudget: with the server's simulated-execution
// ceiling set absurdly low, every query answers 504 with a descriptive
// deadline body and partial progress — never a hang, never a 500.
func TestQueryDeadlineSimBudget(t *testing.T) {
	g := testGraph(t, 500)
	s := newTestServer(t, g, func(c *Config) {
		c.MaxSimExec = 1e-9 // the first level boundary already exceeds this
	})
	ts, _ := startHTTP(t, s)

	for path, body := range map[string]string{
		"/v1/bfs":  `{"source":1}`,
		"/v1/sssp": `{"source":1}`,
	} {
		code, raw := postJSON(t, ts.URL+path, body)
		if code != http.StatusGatewayTimeout {
			t.Fatalf("%s under a tiny sim budget: status %d (body %s), want 504", path, code, raw)
		}
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatalf("%s 504 body is not JSON: %v (%s)", path, err, raw)
		}
		if !er.DeadlineExceeded || !strings.Contains(er.Error, "budget exceeded") {
			t.Fatalf("%s 504 body %+v does not mark the exceeded budget", path, er)
		}
		if er.Partial == nil || er.Partial.Unit == "" {
			t.Fatalf("%s 504 body %+v carries no partial progress", path, er)
		}
	}
	if st := s.Stats(); st.Queries.DeadlineExceeded != 2 {
		t.Fatalf("stats count %d deadline-exceeded queries, want 2", st.Queries.DeadlineExceeded)
	}
	if v := s.reg.Counter("graphd_deadline_exceeded_total").Value(); v != 2 {
		t.Fatalf("metrics count %d deadline-exceeded queries, want 2", v)
	}
}

// holdEngines takes every engine out of the pool, so admitted queries
// wait, and returns the func that puts them back.
func holdEngines(s *Server) (release func()) {
	held := make([]*engine, s.cfg.Replicas)
	for i := range held {
		held[i] = <-s.engines
	}
	return func() {
		for _, e := range held {
			s.engines <- e
		}
	}
}

// awaitWaiting polls until n queries wait in the batcher's queue —
// admitted and submitted, so a drain that starts now still answers
// them.
func awaitWaiting(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.batcher.mu.Lock()
		queued := len(s.batcher.pending)
		s.batcher.mu.Unlock()
		if queued >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d queries reached the queue", queued, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueryDeadlineTimeoutMS: a query running alone carries its own
// deadline into the run. With the engine held back until the 1 ms
// budget is certainly spent, the run cancels cooperatively at its first
// level boundary and the answer is a 504 with the partial stats.
func TestQueryDeadlineTimeoutMS(t *testing.T) {
	g := testGraph(t, 500)
	s := newTestServer(t, g, nil)
	ts, _ := startHTTP(t, s)

	release := holdEngines(s)
	type answer struct {
		code int
		raw  []byte
	}
	got := make(chan answer, 1)
	go func() {
		code, raw := postJSON(t, ts.URL+"/v1/bfs", `{"source":2,"timeout_ms":1}`)
		got <- answer{code, raw}
	}()
	awaitWaiting(t, s, 1)
	time.Sleep(5 * time.Millisecond) // the deadline passes while the query waits
	release()
	a := <-got
	code, raw := a.code, a.raw
	if code != http.StatusGatewayTimeout {
		t.Fatalf("bfs with timeout_ms=1: status %d (body %s), want 504", code, raw)
	}
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || !er.DeadlineExceeded {
		t.Fatalf("504 body %s does not mark the deadline (err %v)", raw, err)
	}
	if !strings.Contains(er.Error, "deadline exceeded") {
		t.Fatalf("504 error %q does not say the deadline was exceeded", er.Error)
	}
	if er.Partial == nil || er.Partial.Unit != "level" {
		t.Fatalf("504 body %s carries no partial progress of the canceled run", raw)
	}

	// Negative timeouts are the caller's bug: 400, not 504.
	code, raw = postJSON(t, ts.URL+"/v1/bfs", `{"source":2,"timeout_ms":-5}`)
	if code != http.StatusBadRequest || !strings.Contains(string(raw), "timeout_ms") {
		t.Fatalf("negative timeout_ms: status %d body %s, want a 400 naming timeout_ms", code, raw)
	}

	// A generous timeout changes nothing about the answer.
	res, err := NewClient(ts.URL).BFS(BFSRequest{Source: intp(2), Levels: true, TimeoutMS: 60_000})
	if err != nil {
		t.Fatalf("bfs with a generous timeout: %v", err)
	}
	for v, want := range g.SerialBFS(2) {
		if res.Levels[v] != want {
			t.Fatalf("levels[%d] = %d under a generous timeout, oracle %d", v, res.Levels[v], want)
		}
	}
}

// TestLateRiderAnswered504: a deadline is a property of the answer. A
// rider whose own deadline passed before the sweep it shares finished
// is answered 504 with that sweep's stats — the sweep ran to completion
// under its patient riders' (unbounded) deadline, and they get their
// levels — however quickly the answer reached the handler.
func TestLateRiderAnswered504(t *testing.T) {
	g := testGraph(t, 500)
	s := newTestServer(t, g, nil)
	ts, cl := startHTTP(t, s)

	release := holdEngines(s)
	late := make(chan []byte, 1)
	go func() {
		code, raw := postJSON(t, ts.URL+"/v1/bfs", `{"source":2,"timeout_ms":1}`)
		if code != http.StatusGatewayTimeout {
			raw = []byte(fmt.Sprintf("status %d: %s", code, raw))
		}
		late <- raw
	}()
	patient := make(chan error, minSweepLanes)
	for i := 0; i < minSweepLanes; i++ {
		go func(src int) {
			res, err := cl.BFS(BFSRequest{Source: intp(src), Levels: true})
			if err == nil {
				if res.Stats.BatchLanes != minSweepLanes+1 {
					err = fmt.Errorf("source %d rode %d lanes, want the %d-lane sweep", src, res.Stats.BatchLanes, minSweepLanes+1)
				}
				for v, want := range g.SerialBFS(bgl.Vertex(src)) {
					if res.Levels[v] != want {
						err = fmt.Errorf("source %d: levels[%d] = %d, oracle %d", src, v, res.Levels[v], want)
						break
					}
				}
			}
			patient <- err
		}(10 + i)
	}
	awaitWaiting(t, s, minSweepLanes+1)
	time.Sleep(5 * time.Millisecond) // the impatient rider's deadline passes
	release()

	for i := 0; i < minSweepLanes; i++ {
		if err := <-patient; err != nil {
			t.Fatalf("patient rider: %v", err)
		}
	}
	raw := <-late
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || !er.DeadlineExceeded {
		t.Fatalf("late rider was not answered 504 deadline-exceeded: %s", raw)
	}
	if er.Partial == nil || er.Partial.Unit != "sweep" || er.Partial.Done == 0 || er.Partial.SimExecS <= 0 {
		t.Fatalf("late rider's 504 does not carry the finished sweep's stats: %s", raw)
	}
	if st := s.Stats(); st.Queries.DeadlineExceeded != 1 || st.Queries.Errors != 0 {
		t.Fatalf("stats %+v, want one deadline-exceeded query and no errors", st.Queries)
	}
}

// TestChaosPanicQuarantineRebuild is the supervision drill end to end:
// the armed sweep kills its replica, the query transparently retries on
// the healthy one and still matches the oracle, /v1/stats shows the
// panic and quarantine, /healthz degrades while the rebuild runs and
// recovers once the supervisor restores the pool.
func TestChaosPanicQuarantineRebuild(t *testing.T) {
	g := testGraph(t, 400)
	s := newTestServer(t, g, func(c *Config) {
		c.Replicas = 2
		c.ChaosPanicSweep = 1
		c.RebuildBackoff = 800 * time.Millisecond // hold the degraded window open
	})
	ts, cl := startHTTP(t, s)

	res, err := cl.BFS(BFSRequest{Source: intp(3), Levels: true})
	if err != nil {
		t.Fatalf("bfs riding the chaos sweep: %v", err)
	}
	for v, want := range g.SerialBFS(3) {
		if res.Levels[v] != want {
			t.Fatalf("levels[%d] = %d after the replica panic, oracle %d", v, res.Levels[v], want)
		}
	}

	st := s.Stats()
	if st.Replicas.Panics < 1 {
		t.Fatalf("stats count %d panics after the armed sweep, want >= 1", st.Replicas.Panics)
	}
	if st.Replicas.Quarantined != 1 || st.Replicas.Live != 1 {
		t.Fatalf("replica state %+v right after the panic, want 1 live / 1 quarantined", st.Replicas)
	}

	// The degraded window: 200 with status "degraded" and the count.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz during rebuild: %v", err)
	}
	raw := readAll(t, resp)
	resp.Body.Close()
	var hz HealthzResponse
	if err := json.Unmarshal(raw, &hz); err != nil {
		t.Fatalf("healthz body %s: %v", raw, err)
	}
	if resp.StatusCode != http.StatusOK || hz.Status != "degraded" || hz.Quarantined != 1 {
		t.Fatalf("healthz during rebuild = %d %+v, want 200 degraded quarantined=1", resp.StatusCode, hz)
	}

	// The supervisor restores the pool; poll until healthy again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st = s.Stats()
		if st.Replicas.Quarantined == 0 && st.Replicas.Live == 2 && st.Replicas.Rebuilds >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never rebuilt: %+v", st.Replicas)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cl.Healthz(); err != nil {
		t.Fatalf("healthz after the rebuild: %v", err)
	}

	// The rebuilt replica serves: drain enough queries that both pool
	// slots must participate.
	for i := 0; i < 4; i++ {
		if _, err := cl.BFS(BFSRequest{Source: intp(i)}); err != nil {
			t.Fatalf("bfs %d after the rebuild: %v", i, err)
		}
	}
	if v := s.reg.Counter("graphd_replica_rebuilds_total").Value(); v < 1 {
		t.Fatalf("metrics count %d rebuilds, want >= 1", v)
	}
}

// TestReplicasShareOneDistGraph: a server distributes its graph exactly
// once. Its 4 engines are machines of their own and nothing more — the
// one *DistGraph is the server's — and after a panic the supervisor
// builds a fresh machine while the DistGraph stays the very same one
// (Distribute would have returned another), yet the rebuilt replica
// answers oracle-correct on its own.
func TestReplicasShareOneDistGraph(t *testing.T) {
	g := testGraph(t, 400)
	s := newTestServer(t, g, func(c *Config) {
		c.Replicas = 4
		c.ChaosPanicSweep = 1
		c.RebuildBackoff = 10 * time.Millisecond
	})
	_, cl := startHTTP(t, s)

	// borrow empties the idle pool.
	borrow := func() []*engine {
		es := make([]*engine, 4)
		for i := range es {
			es[i] = <-s.engines
		}
		return es
	}

	dg := s.dg
	if dg == nil {
		t.Fatal("the server holds no distributed graph")
	}
	before := borrow()
	machines := map[*bgl.Cluster]bool{}
	for _, e := range before {
		machines[e.cl] = true
	}
	if len(machines) != 4 {
		t.Fatalf("4 replicas run on %d distinct machines", len(machines))
	}
	for _, e := range before {
		s.engines <- e
	}

	// The armed first sweep kills its replica; the query retries on a
	// healthy one. Then wait for the supervisor.
	if _, err := cl.BFS(BFSRequest{Source: intp(3)}); err != nil {
		t.Fatalf("bfs riding the chaos sweep: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := s.Stats(); st.Replicas.Rebuilds >= 1 && st.Replicas.Live == 4 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("replica never rebuilt: %+v", st.Replicas)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if s.dg != dg {
		t.Fatalf("after the rebuild the server searches DistGraph %p, not the original %p", s.dg, dg)
	}
	after := borrow()
	var rebuilt *engine
	for _, e := range after {
		if !machines[e.cl] {
			rebuilt = e
		}
	}
	if rebuilt == nil {
		t.Fatal("no replica runs on a fresh machine after the rebuild")
	}
	// Only the rebuilt replica is in the pool for this query.
	s.engines <- rebuilt
	res, err := cl.BFS(BFSRequest{Source: intp(5), Levels: true})
	if err != nil {
		t.Fatalf("bfs on the rebuilt replica: %v", err)
	}
	for v, want := range g.SerialBFS(5) {
		if res.Levels[v] != want {
			t.Fatalf("levels[%d] = %d on the rebuilt replica, oracle %d", v, res.Levels[v], want)
		}
	}
	for _, e := range after {
		if e != rebuilt {
			s.engines <- e
		}
	}
}

// TestFaultInjectedServing: under the canned fault plan every answer
// still matches the serial oracle (the transport recovery protocol
// absorbs the faults) and the injected-fault counters surface in
// /v1/stats.
func TestFaultInjectedServing(t *testing.T) {
	g, err := bgl.GenerateWeighted(300, 6, 5)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	s := newTestServer(t, g, func(c *Config) {
		c.Fault = bgl.CannedFaultPlan(7)
	})
	_, cl := startHTTP(t, s)

	res, err := cl.BFS(BFSRequest{Source: intp(1), Levels: true})
	if err != nil {
		t.Fatalf("bfs under faults: %v", err)
	}
	for v, want := range g.SerialBFS(1) {
		if res.Levels[v] != want {
			t.Fatalf("levels[%d] = %d under faults, oracle %d", v, res.Levels[v], want)
		}
	}
	sres, err := cl.SSSP(SSSPRequest{Source: intp(1), Dists: true})
	if err != nil {
		t.Fatalf("sssp under faults: %v", err)
	}
	for v, want := range g.SerialDijkstra(1) {
		if sres.Dists[v] != want {
			t.Fatalf("dists[%d] = %d under faults, oracle %d", v, sres.Dists[v], want)
		}
	}

	st := s.Stats()
	if st.Faults == nil {
		t.Fatal("stats carry no fault section under a fault plan")
	}
	if st.Faults.Injected == 0 {
		t.Fatal("canned plan injected zero faults across a BFS and an SSSP")
	}
	if st.Faults.Plan == "" {
		t.Fatal("fault section does not name the plan")
	}
	if st.Replicas.Panics != 0 {
		t.Fatalf("below-budget plan panicked %d replicas", st.Replicas.Panics)
	}
}
