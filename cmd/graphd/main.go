// Command graphd serves graph queries over HTTP/JSON from a long-lived
// process: the graph is loaded (or generated) and distributed over the
// simulated machine ONCE at startup, then concurrent queries share the
// resident engines. A single-source BFS query that finds a replica idle
// runs on it at once, direction-optimizing; those that arrive while
// every replica is busy coalesce into multi-source MultiBFS sweeps as
// replicas free up. SSSP and path queries go through a bounded worker
// queue with admission control.
//
// Endpoints:
//
//	POST /v1/bfs    {"source":s[,"target":t][,"levels":true]}
//	POST /v1/path   {"source":s,"target":t}
//	POST /v1/sssp   {"source":s[,"target":t][,"delta":d][,"dists":true]}
//	GET  /v1/stats  service statistics
//	GET  /metrics   metrics registry snapshot (?format=json for JSON)
//	GET  /healthz   liveness
//
// Usage:
//
//	graphd -n 1000000 -k 10 -r 8 -c 8
//	graphd -input graph.txt -addr 127.0.0.1:8080 -replicas 2
//	graphd -n 20000 -k 10 -weighted -addr 127.0.0.1:0 -portfile /tmp/graphd.port
//
// On SIGINT/SIGTERM the server drains: in-flight queries finish, new
// ones get 503, and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	bgl "repro"
	"repro/internal/graphd"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port; see -portfile)")
		portFile = flag.String("portfile", "", "write the bound host:port to this file once listening")
		n        = flag.Int("n", 100000, "vertices (when generating)")
		k        = flag.Float64("k", 10, "expected average degree (when generating)")
		seed     = flag.Int64("seed", 42, "graph seed (when generating)")
		input    = flag.String("input", "", "load the graph from an edge-list file instead of generating")
		weighted = flag.Bool("weighted", false, "generate a weighted graph (uniform weights in [1, 256])")
		r        = flag.Int("r", 2, "mesh rows R")
		c        = flag.Int("c", 2, "mesh columns C")
		partStr  = flag.String("part", "2d", "partitioning: 2d|1drow|1dcol")
		cores    = flag.Int("cores", 1, "modeled compute cores per node")
		workers  = flag.Int("workers", 0, "real per-rank worker pool size (0 = -cores)")
		replicas = flag.Int("replicas", 1, "engine replicas (each a simulated machine over the one distributed graph; bounds real concurrency)")
		batch    = flag.Int("batch", bgl.MaxLanes, "max distinct sources per MultiBFS sweep (<= 64; 1 serves every BFS alone)")
		maxWait  = flag.Int("max-waiting", 0, "max batched BFS queries awaiting sweeps before 503 (0 = 4x -batch)")
		queue    = flag.Int("queue", graphd.DefaultQueueDepth, "bounded queue depth for path/sssp queries")
		faultStr = flag.String("fault", "", "deterministic fault plan for every sweep (e.g. canned:7 or seed=1,corrupt=0.01)")
		maxQuery = flag.Duration("max-query-time", 0, "server-side wall cap per query (0 = uncapped; timeout_ms may tighten)")
		maxSim   = flag.Float64("max-simexec", 0, "cap on simulated execution seconds per query (0 = uncapped)")
		chaosN   = flag.Int("chaos-panic-sweep", 0, "arm a one-shot drill: the Nth BFS sweep panics its replica (0 = off)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	part, ok := map[string]bgl.Partition{
		"2d": bgl.Part2D, "1drow": bgl.Part1DRow, "1dcol": bgl.Part1DCol,
	}[*partStr]
	if !ok {
		fail(fmt.Errorf("unknown partitioning %q", *partStr))
	}

	var fplan *bgl.FaultPlan
	if *faultStr != "" {
		var perr error
		if fplan, perr = bgl.ParseFaultPlan(*faultStr); perr != nil {
			fail(perr)
		}
	}

	var g *bgl.Graph
	var err error
	switch {
	case *input != "":
		f, ferr := os.Open(*input)
		if ferr != nil {
			fail(ferr)
		}
		g, err = bgl.Load(f)
		f.Close()
	case *weighted:
		g, err = bgl.GenerateWeighted(*n, *k, *seed)
	default:
		g, err = bgl.Generate(*n, *k, *seed)
	}
	if err != nil {
		fail(err)
	}

	fmt.Fprintf(os.Stderr, "graphd: distributing n=%d (%d edges, weighted=%v) over %dx%d part=%s, %d replica(s)...\n",
		g.N(), g.NumEdges(), g.Weighted(), *r, *c, *partStr, *replicas)
	t0 := time.Now()
	srv, err := graphd.NewServer(graphd.Config{
		Graph: g, R: *r, C: *c, Partition: part,
		Cores: *cores, Workers: *workers, Replicas: *replicas,
		MaxBatch: *batch, MaxWaiting: *maxWait,
		QueueDepth: *queue, Fault: fplan,
		MaxQueryWall: *maxQuery, MaxSimExec: *maxSim,
		ChaosPanicSweep: *chaosN,
	})
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "graphd: distributed in %v\n", time.Since(t0).Round(time.Millisecond))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	bound := ln.Addr().String()
	if *portFile != "" {
		// Written last thing before serving: a reader that sees the file
		// can connect.
		if err := os.WriteFile(*portFile, []byte(bound+"\n"), 0o644); err != nil {
			fail(err)
		}
	}
	fmt.Fprintf(os.Stderr, "graphd: serving on http://%s (batch=%d queue=%d)\n",
		bound, *batch, *queue)

	// The hardened wrapper sets read-header/read/idle timeouts so a
	// slow-loris client cannot pin connections open.
	hs := graphd.NewHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "graphd: %v: draining...\n", sig)
	case err := <-serveErr:
		fail(fmt.Errorf("graphd: serve: %w", err))
	}

	// Drain: stop accepting connections, let in-flight handlers finish,
	// then release the engines.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "graphd: shutdown: %v\n", err)
	}
	srv.Close()
	fmt.Fprintln(os.Stderr, "graphd: drained, bye")
}
