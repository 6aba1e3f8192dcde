// Command graphd serves graph queries over HTTP/JSON from a long-lived
// process: the graph is loaded (or generated) and distributed over the
// simulated machine ONCE at startup, then concurrent queries share the
// resident engines. A single-source BFS query that finds a replica idle
// runs on it at once, direction-optimizing; those that arrive while
// every replica is busy coalesce into multi-source MultiBFS sweeps as
// replicas free up. SSSP and path queries wait in the same FIFO queue
// and run alone; admission is bounded (-max-waiting), beyond it 503.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	bgl "repro"
	"repro/internal/graphd"
)

func main() {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg, addr, portFile, err := config(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	} else if err != nil {
		fail(err)
	}

	fmt.Fprintf(os.Stderr, "graphd: distributing n=%d (%d edges, weighted=%v) over %dx%d part=%s, %d replica(s)...\n",
		cfg.Graph.N(), cfg.Graph.NumEdges(), cfg.Graph.Weighted(), cfg.R, cfg.C, cfg.Partition, cfg.Replicas)
	t0 := time.Now()
	srv, err := graphd.NewServer(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "graphd: distributed in %v\n", time.Since(t0).Round(time.Millisecond))

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fail(err)
	}
	bound := ln.Addr().String()
	if portFile != "" {
		// Written last thing before serving: a reader that sees the file
		// can connect.
		if err := os.WriteFile(portFile, []byte(bound+"\n"), 0o644); err != nil {
			fail(err)
		}
	}
	fmt.Fprintf(os.Stderr, "graphd: serving on http://%s (batch=%d)\n", bound, cfg.MaxBatch)

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

// config parses the command line into the server's Config — the graph
// loaded or generated — plus the listen address and port file. The flag
// package reports usage errors on stderr.
func config(args []string, stderr io.Writer) (cfg graphd.Config, addr, portFile string, err error) {
	fs := flag.NewFlagSet("graphd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addrStr  = fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port; see -portfile)")
		portStr  = fs.String("portfile", "", "write the bound host:port to this file once listening")
		n        = fs.Int("n", 100000, "vertices (when generating)")
		k        = fs.Float64("k", 10, "expected average degree (when generating)")
		seed     = fs.Int64("seed", 42, "graph seed (when generating)")
		input    = fs.String("input", "", "load the graph from an edge-list file instead of generating")
		weighted = fs.Bool("weighted", false, "generate a weighted graph (uniform weights in [1, 256])")
		r        = fs.Int("r", 2, "mesh rows R")
		c        = fs.Int("c", 2, "mesh columns C")
		partStr  = fs.String("part", "2d", "partitioning: 2d|1drow|1dcol")
		cores    = fs.Int("cores", 1, "modeled compute cores per node")
		workers  = fs.Int("workers", 0, "real per-rank worker pool size (0 = -cores)")
		replicas = fs.Int("replicas", 1, "engine replicas (each a simulated machine over the one distributed graph; bounds real concurrency)")
		batch    = fs.Int("batch", bgl.MaxLanes, "max distinct sources per MultiBFS sweep (<= 64; 1 serves every BFS alone)")
		maxWait  = fs.Int("max-waiting", 0, "max admitted, unanswered queries of every kind before 503 (0 = 4x -batch)")
		faultStr = fs.String("fault", "", "deterministic fault plan for every sweep (e.g. canned:7 or seed=1,corrupt=0.01)")
		maxQuery = fs.Duration("max-query-time", 0, "server-side wall cap per query (0 = uncapped; timeout_ms may tighten)")
		maxSim   = fs.Float64("max-simexec", 0, "cap on simulated execution seconds per query (0 = uncapped)")
		chaosN   = fs.Int("chaos-panic-sweep", 0, "arm a one-shot drill: the Nth BFS sweep panics its replica (0 = off)")
	)
	if err = fs.Parse(args); err != nil {
		return cfg, "", "", err
	}
	cfg = graphd.Config{
		R: *r, C: *c, Cores: *cores, Workers: *workers, Replicas: *replicas,
		MaxBatch: *batch, MaxWaiting: *maxWait,
		MaxQueryWall: *maxQuery, MaxSimExec: *maxSim, ChaosPanicSweep: *chaosN,
	}
	var ok bool
	if cfg.Partition, ok = map[string]bgl.Partition{"2d": bgl.Part2D, "1drow": bgl.Part1DRow, "1dcol": bgl.Part1DCol}[*partStr]; !ok {
		return cfg, "", "", fmt.Errorf("unknown partitioning %q", *partStr)
	}
	if *faultStr != "" {
		if cfg.Fault, err = bgl.ParseFaultPlan(*faultStr); err != nil {
			return cfg, "", "", err
		}
	}
	switch {
	case *input != "":
		f, ferr := os.Open(*input)
		if ferr != nil {
			return cfg, "", "", ferr
		}
		cfg.Graph, err = bgl.Load(f)
		f.Close()
	case *weighted:
		cfg.Graph, err = bgl.GenerateWeighted(*n, *k, *seed)
	default:
		cfg.Graph, err = bgl.Generate(*n, *k, *seed)
	}
	return cfg, *addrStr, *portStr, err
}
