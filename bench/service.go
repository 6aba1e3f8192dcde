package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"time"

	bgl "repro"
	"repro/internal/graphd"
)

// service is an in-process graphd behind a real HTTP listener on a
// loopback port.
type service struct {
	srv    *graphd.Server
	http   *http.Server
	served chan error
	base   string
}

// startService distributes cfg.Graph, starts listening, and returns
// once /healthz has answered 200.
func startService(cfg graphd.Config) (*service, error) {
	srv, err := graphd.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &service{
		srv:    srv,
		http:   graphd.NewHTTPServer(srv.Handler()),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	go func() { s.served <- s.http.Serve(ln) }()
	if err := graphd.NewClient(s.base, graphd.WithRetries(0)).Healthz(); err != nil {
		s.stop()
		return nil, fmt.Errorf("first /healthz: %w", err)
	}
	return s, nil
}

// stop shuts the listener, drains the server and waits for the accept
// loop to return.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // on timeout Close below still ends the loop
	_ = s.http.Close()
	s.srv.Close()
	<-s.served
}

type queryKind int

const (
	qBFS queryKind = iota
	qPath
	qSSSP
)

func (k queryKind) String() string { return [...]string{"bfs", "path", "sssp"}[k] }

// query is one seeded request and the oracle's answer to it.
type query struct {
	kind     queryKind
	src, tgt int
	dist     int64 // hops (bfs, path) or weighted distance (sssp) src→tgt
	reached  int   // vertices reachable from src
}

// serviceFixture drives graphd the way a caller does: typed clients,
// HTTP/JSON, one query per op.
type serviceFixture struct {
	w       workload
	g       *bgl.Graph
	svc     *service
	clients []*graphd.Client
	queries []query
}

// serviceConfig is the server every service workload runs: a 2x2 mesh,
// two replicas, and every batching knob at its default.
func serviceConfig(w workload, g *bgl.Graph) graphd.Config {
	return graphd.Config{Graph: g, R: w.r, C: w.c, Partition: w.part, Replicas: 2}
}

func buildService(w workload, seed int64, rec *recorder, parent int) (*serviceFixture, buildTimes, error) {
	var bt buildTimes
	f := &serviceFixture{w: w}
	var err error
	t0 := time.Now()
	sp := rec.begin("graph.generate", parent, -1, 0)
	f.g, err = generate(w, seed)
	rec.end(sp)
	bt.generate = time.Since(t0)
	if err != nil {
		return nil, bt, err
	}
	t1 := time.Now()
	sp = rec.begin("graphd.newserver", parent, -1, 0)
	f.svc, err = startService(serviceConfig(w, f.g))
	rec.end(sp)
	bt.newServer = time.Since(t1)
	bt.total = time.Since(t0)
	if err != nil {
		return nil, bt, err
	}
	f.dial()
	return f, bt, nil
}

// dial gives every closed-loop client its own graphd.Client with
// retries off, so a refused query is counted, not hidden.
func (f *serviceFixture) dial() {
	f.clients = make([]*graphd.Client, f.w.clients)
	for i := range f.clients {
		f.clients[i] = graphd.NewClient(f.svc.base, graphd.WithRetries(0))
	}
}

func (f *serviceFixture) close() {
	f.svc.stop()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

func (f *serviceFixture) prepare(seed int64, rec *recorder, parent int) oracleTimes {
	sp := rec.begin("graph.oracle", parent, -1, 0)
	defer rec.end(sp)
	var ot oracleTimes
	rng := rand.New(rand.NewSource(seed))
	// One draw gives the sources and a pool of targets, all in the
	// largest component so every query has an answer.
	verts := pickVertices(f.g, f.w.sources+f.w.cycle, rng)
	sources, targets := verts[:min(f.w.sources, len(verts))], verts[min(f.w.sources, len(verts)):]
	f.queries = make([]query, f.w.cycle)
	for i := range f.queries {
		q := &f.queries[i]
		q.src = int(sources[i%len(sources)])
		q.tgt = int(targets[i%len(targets)])
		if f.w.mix {
			// bfs bfs bfs path sssp: 60/20/20 in every five queries.
			q.kind = [...]queryKind{qBFS, qBFS, qBFS, qPath, qSSSP}[i%5]
		}
		if q.kind == qSSSP {
			var dist []uint32
			ot.dijkstraMS = append(ot.dijkstraMS, timedMS(func() { dist = f.g.SerialDijkstra(bgl.Vertex(q.src)) }))
			q.dist = int64(dist[q.tgt])
			for _, d := range dist {
				if d != bgl.MaxDist {
					q.reached++
				}
			}
			continue
		}
		var levels []int32
		ot.bfsMS = append(ot.bfsMS, timedMS(func() { levels = f.g.SerialBFS(bgl.Vertex(q.src)) }))
		q.dist = int64(levels[q.tgt])
		for _, l := range levels {
			if l != bgl.Unreached {
				q.reached++
			}
		}
	}
	return ot
}

func (f *serviceFixture) op(i, client int, c *counters, rec *recorder) (time.Duration, error) {
	q := &f.queries[i%len(f.queries)]
	cl := f.clients[client]
	opSpan := rec.begin("bench.op", -1, i, client)
	defer rec.end(opSpan)
	req := rec.begin("graphd.request", opSpan, i, client)
	var stats graphd.QueryStats
	var err error
	ok := false
	t0 := time.Now()
	switch q.kind {
	case qBFS:
		var resp *graphd.BFSResponse
		resp, err = cl.BFS(graphd.BFSRequest{Source: &q.src, Target: &q.tgt})
		if err == nil {
			stats = resp.Stats
			ok = resp.Reached == q.reached && resp.Distance != nil && int64(*resp.Distance) == q.dist
		}
	case qPath:
		var resp *graphd.PathResponse
		resp, err = cl.Path(graphd.PathRequest{Source: &q.src, Target: &q.tgt})
		if err == nil {
			stats = resp.Stats
			ok = resp.Found && int64(resp.Distance) == q.dist && f.validPath(resp.Path, q)
		}
	case qSSSP:
		var resp *graphd.SSSPResponse
		resp, err = cl.SSSP(graphd.SSSPRequest{Source: &q.src, Target: &q.tgt, Delta: ssspDelta})
		if err == nil {
			stats = resp.Stats
			ok = resp.Reached == q.reached && resp.Distance != nil && int64(*resp.Distance) == q.dist
		}
	}
	d := time.Since(t0)
	rec.end(req)
	if err != nil {
		var api *graphd.APIError
		if errors.As(err, &api) && api.Status == http.StatusServiceUnavailable {
			c.sum["rejected"]++
		}
		return d, err
	}
	if !ok {
		return d, errMismatch
	}
	// Rebuild the server-side spans from what the response says about
	// itself; what is left of the client's latency (HTTP, JSON,
	// admission, demux) is the request span's self time, placed half
	// before and half after.
	wait := time.Duration(stats.QueueWaitS * float64(time.Second))
	sweep := time.Duration(stats.WallS * float64(time.Second))
	lead := max(d-wait-sweep, 0) / 2
	rec.add("graphd.queue_wait", req, i, client, t0.Add(lead), wait)
	rec.add("graphd.sweep", req, i, client, t0.Add(lead+wait), sweep)

	ms := d.Seconds() * 1e3
	c.sum["ops"]++
	c.sum["lanes"] += float64(stats.BatchLanes)
	c.sum["sim_time"] += stats.SimExecS
	c.sum["words"] += float64(stats.Words)
	c.samples["queue_wait_ms"] = append(c.samples["queue_wait_ms"], stats.QueueWaitS*1e3)
	c.samples["sweep_ms"] = append(c.samples["sweep_ms"], stats.WallS*1e3)
	c.samples[q.kind.String()+"_ms"] = append(c.samples[q.kind.String()+"_ms"], ms)
	return d, nil
}

// validPath reports whether p is a walk src→tgt over edges of the
// graph with exactly the oracle's hop count.
func (f *serviceFixture) validPath(p []int, q *query) bool {
	if len(p) == 0 || int64(len(p)) != q.dist+1 || p[0] != q.src || p[len(p)-1] != q.tgt {
		return false
	}
	for i := 1; i < len(p); i++ {
		if !slices.Contains(f.g.Neighbors(bgl.Vertex(p[i-1])), bgl.Vertex(p[i])) {
			return false
		}
	}
	return true
}
