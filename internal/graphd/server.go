package graphd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	bgl "repro"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// Server is a graphd instance: the graph distributed once, a pool of
// engine replicas searching it, the engine-paced batcher in front of
// them — the one FIFO queue every query kind waits in — and the HTTP
// surface.
//
//	POST /v1/bfs    single-source BFS (alone on an idle replica, sharing a MultiBFS sweep when all are busy)
//	POST /v1/path   shortest path s→t (alone, a solo job)
//	POST /v1/sssp   Δ-stepping distances (alone, a solo job)
//	GET  /v1/stats  service statistics
//	GET  /metrics   the metrics registry (text; ?format=json for JSON)
//	GET  /healthz   liveness (503 while draining)
type Server struct {
	cfg Config
	// dg is the distributed graph, which every engine searches.
	dg      *bgl.DistGraph
	engines chan *engine
	batcher *batcher
	reg     *metrics.Registry
	opts    []bgl.Option // what every run starts from; see searchOpts
	mux     *http.ServeMux
	start   time.Time

	draining atomic.Bool
	closed   chan struct{}
	waiting  atomic.Int64 // admitted, unanswered queries of every kind

	// Replica supervision. stopCh wakes sleeping rebuild loops when the
	// server drains; supervisorWG tracks them so Close can join. live /
	// quarantined count replica states; sweepSeq numbers BFS sweeps for
	// the one-shot chaos drill.
	stopCh       chan struct{}
	supervisorWG sync.WaitGroup
	live         atomic.Int64
	quarantined  atomic.Int64
	sweepSeq     atomic.Int64

	faultMu     sync.Mutex
	faultTotals bgl.FaultStats

	nBFS, nPath, nSSSP *metrics.Counter
	nQueries           *metrics.Counter
	nRejected          *metrics.Counter
	nErrors            *metrics.Counter
	nDeadline          *metrics.Counter
	nPanics            *metrics.Counter
	nRebuilds          *metrics.Counter
	nFaultInjected     *metrics.Counter
	nFaultRetries      *metrics.Counter
	gQuarantined       *metrics.Gauge
	hQueueWait         *metrics.Histogram
	hLatency           *metrics.Histogram
}

// NewServer validates cfg, distributes the graph, builds cfg.Replicas
// engines over it, and returns a ready (but not yet listening) server;
// mount Handler on any http.Server. Configuration the library cannot
// lay out — a mesh with more ranks than the graph has vertices, an
// unknown partitioning — returns the library's own descriptive error.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	engines, dg, err := buildEngines(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		dg:      dg,
		engines: make(chan *engine, len(engines)),
		reg:     metrics.NewRegistry(),
		start:   time.Now(),
		closed:  make(chan struct{}),
		stopCh:  make(chan struct{}),
	}
	s.opts = []bgl.Option{bgl.WithWire(wire), bgl.WithMetrics(s.reg),
		bgl.WithCores(cfg.Cores), bgl.WithWorkers(cfg.poolSize())}
	if cfg.Fault != nil {
		s.opts = append(s.opts, bgl.WithFault(cfg.Fault))
	}
	for _, e := range engines {
		s.engines <- e
	}
	s.live.Store(int64(len(engines)))
	s.batcher = newBatcher(cfg.MaxBatch, s.engines, s.sweepBFS, s.reg)
	s.nBFS = s.reg.Counter("graphd_bfs_queries_total")
	s.nPath = s.reg.Counter("graphd_path_queries_total")
	s.nSSSP = s.reg.Counter("graphd_sssp_queries_total")
	s.nQueries = s.reg.Counter("graphd_queries_total")
	s.nRejected = s.reg.Counter("graphd_rejected_total")
	s.nErrors = s.reg.Counter("graphd_errors_total")
	s.nDeadline = s.reg.Counter("graphd_deadline_exceeded_total")
	s.nPanics = s.reg.Counter("graphd_engine_panics_total")
	s.nRebuilds = s.reg.Counter("graphd_replica_rebuilds_total")
	s.nFaultInjected = s.reg.Counter("graphd_faults_injected_total")
	s.nFaultRetries = s.reg.Counter("graphd_fault_retries_total")
	s.gQuarantined = s.reg.Gauge("graphd_replicas_quarantined")
	s.hQueueWait = s.reg.Histogram("graphd_queue_wait_seconds", metrics.TimeBuckets)
	s.hLatency = s.reg.Histogram("graphd_latency_seconds", metrics.TimeBuckets)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/bfs", s.handleBFS)
	s.mux.HandleFunc("/v1/path", s.handlePath)
	s.mux.HandleFunc("/v1/sssp", s.handleSSSP)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.Handle("/metrics", metrics.Handler(s.reg))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s, nil
}

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the server: no new queries are admitted (503), the
// queue's pending queries of every kind run as engines free up, and
// Close blocks until every admitted query has been answered. Safe to
// call more than once. Stop the HTTP listener first (http.Server
// Shutdown) or alongside — handlers already past admission finish
// normally.
func (s *Server) Close() {
	if s.draining.Swap(true) {
		<-s.closed
		return
	}
	// Wake sleeping rebuild loops first: the dispatcher, blocked on the
	// engine pool, may be waiting for the supervisor's replacement.
	close(s.stopCh)
	s.batcher.close()
	s.supervisorWG.Wait()
	close(s.closed)
}

// searchOpts are the run options every sweep and query uses — the
// server's wire codec, core model and worker pool, the shared registry,
// and (when configured) the deterministic fault plan, built once by
// NewServer — followed by the run's own.
func (s *Server) searchOpts(extra ...bgl.Option) []bgl.Option {
	return append(s.opts[:len(s.opts):len(s.opts)], extra...)
}

// --- deadlines -----------------------------------------------------

// A deadline is a property of the answer: a query whose own wall
// deadline had passed when its run returned is answered 504 with that
// run's progress, however the run ended — canceled cooperatively at a
// level/epoch boundary (a query running alone stops itself this way),
// or finished late for a rider of a sweep that ran under a looser
// deadline (see reply).

// deadlineGrace is the backstop for a stuck engine: how much past its
// own wall deadline a handler waits for the run's answer before giving
// up on it and answering 504 without progress.
const deadlineGrace = 200 * time.Millisecond

// awaitAnswer receives a run's answer for a handler. ok is false when
// the deadlineGrace backstop fired first; the buffered channel means
// the run never blocks on the handler that gave up.
func awaitAnswer(ch <-chan batchAnswer, deadline time.Time) (ans batchAnswer, ok bool) {
	if deadline.IsZero() {
		return <-ch, true
	}
	timer := time.NewTimer(time.Until(deadline) + deadlineGrace)
	defer timer.Stop()
	select {
	case ans = <-ch:
		return ans, true
	case <-timer.C:
		return ans, false
	}
}

// errDeadline marks a run stopped by its deadline or simulated-exec
// budget, carrying the partial progress for the 504 body. It unwraps
// to the engine's *bgl.Canceled so engineFailed never mistakes a
// deadline for a crashed replica.
type errDeadline struct {
	cxl   *bgl.Canceled
	stats PartialStats
}

func (e *errDeadline) Error() string { return e.cxl.Error() }
func (e *errDeadline) Unwrap() error { return e.cxl }

// queryDeadline maps a request's timeout_ms and the server-side cap to
// one wall deadline (zero = unbounded). A request may tighten the
// server cap but never loosen it. Negative timeouts are a 400 (already
// written when ok is false).
func (s *Server) queryDeadline(w http.ResponseWriter, timeoutMS int) (time.Time, bool) {
	if timeoutMS < 0 {
		s.writeError(w, http.StatusBadRequest, "timeout_ms must be non-negative, got %d", timeoutMS)
		return time.Time{}, false
	}
	d := time.Duration(timeoutMS) * time.Millisecond
	if s.cfg.MaxQueryWall > 0 && (d == 0 || d > s.cfg.MaxQueryWall) {
		d = s.cfg.MaxQueryWall
	}
	if d == 0 {
		return time.Time{}, true
	}
	return time.Now().Add(d), true
}

// deadlineOpts converts a wall deadline plus the server's simulated
// budget into engine run options; empty when both are off, so
// unbounded serving stays byte-identical to earlier releases.
func (s *Server) deadlineOpts(deadline time.Time) []bgl.Option {
	var opts []bgl.Option
	if !deadline.IsZero() {
		opts = append(opts, bgl.WithDeadline(deadline))
	}
	if s.cfg.MaxSimExec > 0 {
		opts = append(opts, bgl.WithSimBudget(s.cfg.MaxSimExec))
	}
	return opts
}

// wrapDeadline converts a cooperative-cancel error into an errDeadline
// carrying the run's partial progress; every other error (including
// nil) passes through untouched.
func wrapDeadline(err error, st sweepStats) error {
	var cxl *bgl.Canceled
	if err == nil || !errors.As(err, &cxl) {
		return err
	}
	return &errDeadline{cxl: cxl, stats: PartialStats{
		Unit: cxl.Unit, Done: cxl.Done, SimExecS: st.SimExecS, WallS: st.WallS,
	}}
}

// writeDeadline answers a deadline-exceeded query: 504 with a
// descriptive body and, when the engines canceled cooperatively, the
// partial progress. Deliberately NOT an nErrors increment — running
// out of budget is a client outcome, not a server failure.
func (s *Server) writeDeadline(w http.ResponseWriter, msg string, partial *PartialStats) {
	s.nDeadline.Inc()
	writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{
		Error:            msg,
		DeadlineExceeded: true,
		Partial:          partial,
	})
}

// --- engine pool and replica supervision ---------------------------

// engineFailed reports whether a run's error means the replica itself
// is suspect (a rank panic, an exhausted retry budget) as opposed to a
// clean outcome: nil, or a cooperative deadline cancel.
func engineFailed(err error) bool {
	if err == nil {
		return false
	}
	var cxl *bgl.Canceled
	return !errors.As(err, &cxl)
}

// runOn runs fn on the borrowed engine e under panic isolation and
// decides the engine's fate: a clean run (or a cooperative cancel)
// returns it to the pool; a panic or engine failure quarantines it and
// hands the slot to the supervisor for an asynchronous rebuild.
func (s *Server) runOn(e *engine, fn func(e *engine) error) error {
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("graphd: engine %d panicked: %v", e.idx, r)
			}
		}()
		return fn(e)
	}()
	if engineFailed(err) {
		s.quarantineEngine(e)
	} else {
		s.engines <- e
	}
	return err
}

// quarantineEngine takes a failed replica out of the pool and spawns
// its rebuild goroutine.
func (s *Server) quarantineEngine(e *engine) {
	s.nPanics.Inc()
	s.live.Add(-1)
	s.gQuarantined.Set(float64(s.quarantined.Add(1)))
	s.supervisorWG.Add(1)
	go s.rebuildReplica(e.idx)
}

// rebuildReplica is the supervisor loop for one quarantined slot: wait
// a backoff, build a fresh machine over the same distributed graph —
// nothing is re-partitioned — and return it to the pool. Build failures
// double the backoff up to maxRebuildBackoff.
// When the server begins draining mid-backoff the loop makes one final
// immediate attempt — an in-flight query blocked on the pool may need
// the replacement to finish — then gives up.
func (s *Server) rebuildReplica(idx int) {
	defer s.supervisorWG.Done()
	backoff := s.cfg.RebuildBackoff
	for {
		select {
		case <-time.After(backoff):
		case <-s.stopCh:
			if e, err := newEngine(s.cfg, idx); err == nil {
				s.restoreEngine(e)
			}
			return
		}
		e, err := newEngine(s.cfg, idx)
		if err == nil {
			s.restoreEngine(e)
			return
		}
		backoff = min(2*backoff, maxRebuildBackoff)
	}
}

// restoreEngine returns a freshly rebuilt replica to the pool.
func (s *Server) restoreEngine(e *engine) {
	s.engines <- e
	s.live.Add(1)
	s.gQuarantined.Set(float64(s.quarantined.Add(-1)))
	s.nRebuilds.Inc()
}

// recordFaults folds one run's fault/recovery counters into the
// server-lifetime totals /v1/stats and /metrics serve.
func (s *Server) recordFaults(fs bgl.FaultStats) {
	if fs.Zero() {
		return
	}
	s.faultMu.Lock()
	s.faultTotals.Add(fs)
	s.faultMu.Unlock()
	s.nFaultInjected.Add(int64(fs.Injected()))
	s.nFaultRetries.Add(int64(fs.Retries))
}

// --- runs ----------------------------------------------------------

// searchFunc is one engine call: it runs a query's search on e with the
// given run options and reports what the run cost.
type searchFunc func(e *engine, opts []bgl.Option) (sweepStats, error)

// runSearch runs search on the borrowed engine e (see runOn) under the
// server's options and deadline. A deadline or budget cancel comes back
// as an errDeadline carrying the run's progress.
func (s *Server) runSearch(e *engine, deadline time.Time, search searchFunc) (st sweepStats, err error) {
	err = s.runOn(e, func(e *engine) error {
		var err error
		st, err = search(e, s.searchOpts(s.deadlineOpts(deadline)...))
		return wrapDeadline(err, st)
	})
	return st, err
}

// solo makes search a solo job for the dispatcher.
func (s *Server) solo(search searchFunc) soloFunc {
	return func(e *engine, deadline time.Time) (sweepStats, error) {
		return s.runSearch(e, deadline, search)
	}
}

// sweepBFS executes one share on the engine the dispatcher borrowed for
// it: a single distinct source runs the flagship direction-optimizing
// BFS (no lane-mask overhead, bottom-up on the big middle levels), two
// or more share one MultiBFS sweep sequence. Either way each source's
// levels are identical to an independent run — the MultiBFS contract.
// A run whose replica dies under it (the one-shot chaos drill, or a
// fault plan beyond the retry budget) is retried once on a healthy
// engine, so the riders never see the casualty.
func (s *Server) sweepBFS(e *engine, sources []bgl.Vertex, deadline time.Time) ([][]int32, sweepStats, error) {
	seq := s.sweepSeq.Add(1)
	hostile := s.cfg.ChaosPanicSweep > 0 && seq == int64(s.cfg.ChaosPanicSweep)
	levels, st, err := s.trySweep(e, sources, deadline, hostile)
	if engineFailed(err) && !s.draining.Load() {
		levels, st, err = s.trySweep(<-s.engines, sources, deadline, false)
	}
	return levels, st, err
}

// trySweep runs the share once on engine e. The levels are only
// complete when err is nil.
func (s *Server) trySweep(e *engine, sources []bgl.Vertex, deadline time.Time, hostile bool) ([][]int32, sweepStats, error) {
	var levels [][]int32
	st, err := s.runSearch(e, deadline, func(e *engine, opts []bgl.Option) (sweepStats, error) {
		if hostile {
			opts = append(opts, bgl.WithFault(bgl.HostileFaultPlan(uint64(e.idx)+1)))
		}
		if len(sources) == 1 {
			res, err := e.cl.BFS(s.dg, sources[0], append(opts, bgl.WithDirection(bgl.DirectionOptimizing))...)
			if res == nil {
				return sweepStats{}, err
			}
			s.recordFaults(res.Faults)
			levels = [][]int32{res.Levels}
			return runStats(res.SimTime, res.SimComm, res.TotalExpandWords+res.TotalFoldWords, res.Wall, "level", len(res.PerLevel)), err
		}
		mres, err := e.cl.MultiBFS(s.dg, sources, opts...)
		if mres == nil {
			return sweepStats{}, err
		}
		s.recordFaults(mres.Faults)
		levels = mres.LaneLevels
		return runStats(mres.SimTime, mres.SimComm, mres.TotalExpandWords+mres.TotalFoldWords, mres.Wall, "sweep", len(mres.PerLevel)), err
	})
	return levels, st, err
}

// runStats stamps a run that just returned.
func runStats(sim, comm float64, words int64, wall time.Duration, unit string, done int) sweepStats {
	return sweepStats{
		SimExecS: sim, SimCommS: comm, Words: words, WallS: wall.Seconds(),
		Unit: unit, Done: done, Finished: time.Now(),
	}
}

// --- HTTP plumbing -------------------------------------------------

// writeJSON answers with a JSON body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError answers a failure as ErrorResponse JSON.
func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
		s.nRejected.Inc()
	}
	if code >= 500 {
		s.nErrors.Inc()
	}
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeRequest parses a strict JSON POST body into dst: wrong method,
// malformed JSON, unknown fields, and trailing garbage are all
// descriptive 4xx answers, never 500s.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "%s needs POST, got %s", r.URL.Path, r.Method)
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		s.writeError(w, http.StatusBadRequest, "malformed request body: %v", err)
		return false
	}
	if dec.More() {
		s.writeError(w, http.StatusBadRequest, "malformed request body: trailing data after the JSON object")
		return false
	}
	return true
}

// vertexArg validates one request vertex: present and inside [0, n).
func (s *Server) vertexArg(w http.ResponseWriter, name string, v *int, required bool) (bgl.Vertex, bool) {
	n := s.cfg.Graph.N()
	if v == nil {
		if required {
			s.writeError(w, http.StatusBadRequest, "missing %q: give a vertex id in [0, %d)", name, n)
			return 0, false
		}
		return 0, true
	}
	if *v < 0 || *v >= n {
		s.writeError(w, http.StatusBadRequest, "%s %d out of range: the graph has vertices [0, %d)", name, *v, n)
		return 0, false
	}
	return bgl.Vertex(*v), true
}

// admit is the one admission step of every query kind: 503 while
// draining, or once MaxWaiting queries are admitted and unanswered. The
// slot is reserved before the bound is checked and given back on
// overflow, so concurrent arrivals cannot overshoot it; an admitted
// query gives it back when answered.
func (s *Server) admit(w http.ResponseWriter, kind *metrics.Counter) bool {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "server is draining")
		return false
	}
	kind.Inc()
	s.nQueries.Inc()
	if s.waiting.Add(1) > int64(s.cfg.MaxWaiting) {
		s.waiting.Add(-1)
		s.writeError(w, http.StatusServiceUnavailable,
			"query backlog full (%d queries waiting); retry shortly", s.cfg.MaxWaiting)
		return false
	}
	return true
}

// serve gives q the request's deadline, admits it, queues it and
// replies with its answer. what names the query in error answers, and
// is called only for one, so a success formats nothing; body builds the
// 200 answer.
func (s *Server) serve(w http.ResponseWriter, t0 time.Time, timeoutMS int, kind *metrics.Counter, q *batchQuery, what func() string, body func(batchAnswer) any) {
	var ok bool
	if q.deadline, ok = s.queryDeadline(w, timeoutMS); !ok || !s.admit(w, kind) {
		return
	}
	defer s.waiting.Add(-1)
	ch, err := s.batcher.submit(q)
	if err != nil {
		s.writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	ans, ok := awaitAnswer(ch, q.deadline)
	s.reply(w, t0, q.deadline, ans, ok, what, body)
}

// reply turns a query's answer into its response: 504 when the
// deadlineGrace backstop fired first (no progress), when the run
// stopped at the deadline or budget (its progress), or when it finished
// past the query's own deadline (the run's stats); 500 on any other
// error; else 200, observed by the queue-wait and latency histograms.
func (s *Server) reply(w http.ResponseWriter, t0, deadline time.Time, ans batchAnswer, ok bool, what func() string, body func(batchAnswer) any) {
	switch {
	case !ok:
		// The run is still going — for patient riders, or on a stuck
		// engine; this query's own budget is long spent.
		s.writeDeadline(w, fmt.Sprintf("%s: query deadline exceeded: no answer %v past it", what(), deadlineGrace), nil)
	case ans.err != nil:
		if edl := (*errDeadline)(nil); errors.As(ans.err, &edl) {
			s.writeDeadline(w, fmt.Sprintf("%s: query deadline exceeded: %v", what(), edl), &edl.stats)
		} else {
			s.writeError(w, http.StatusInternalServerError, "%s failed: %v", what(), ans.err)
		}
	case !deadline.IsZero() && ans.sweep.Finished.After(deadline): // late: zero is unbounded
		s.writeDeadline(w, fmt.Sprintf("%s: query deadline exceeded: the %d-lane run it rode finished %v past it",
			what(), ans.stats.BatchLanes, ans.sweep.Finished.Sub(deadline).Round(time.Microsecond)), ans.sweep.partial())
	default:
		s.hQueueWait.Observe(ans.stats.QueueWaitS)
		s.hLatency.Observe(time.Since(t0).Seconds())
		writeJSON(w, http.StatusOK, body(ans))
	}
}

// --- handlers ------------------------------------------------------

func (s *Server) handleBFS(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var req BFSRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	src, ok := s.vertexArg(w, "source", req.Source, true)
	if !ok {
		return
	}
	tgt, ok := s.vertexArg(w, "target", req.Target, false)
	if !ok {
		return
	}
	q := &batchQuery{source: src}
	what := func() string { return fmt.Sprintf("bfs from %d", src) }
	s.serve(w, t0, req.TimeoutMS, s.nBFS, q, what, func(ans batchAnswer) any {
		resp := BFSResponse{Source: int(src), Stats: ans.stats}
		for _, l := range ans.levels {
			if l != bgl.Unreached {
				resp.Reached++
			}
		}
		if req.Target != nil {
			d := ans.levels[tgt]
			found := d != bgl.Unreached
			resp.Found, resp.Distance = &found, &d
		}
		if req.Levels {
			resp.Levels = ans.levels
		}
		return resp
	})
}

func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var req PathRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	src, ok := s.vertexArg(w, "source", req.Source, true)
	if !ok {
		return
	}
	tgt, ok := s.vertexArg(w, "target", req.Target, true)
	if !ok {
		return
	}
	var path []bgl.Vertex
	q := &batchQuery{solo: s.solo(func(e *engine, opts []bgl.Option) (sweepStats, error) {
		p, res, err := e.cl.Path(s.dg, src, tgt, opts...)
		if res == nil {
			return sweepStats{}, err // the run itself died: a failed replica
		}
		s.recordFaults(res.Faults)
		if !res.Found && engineFailed(err) {
			err = nil // not a cancel, so not reachable: an answer (found: false)
		}
		path = p
		return runStats(res.SimTime, res.SimComm, res.TotalExpandWords+res.TotalFoldWords, res.Wall, "level", len(res.PerLevel)), err
	})}
	what := func() string { return fmt.Sprintf("path %d→%d", src, tgt) }
	s.serve(w, t0, req.TimeoutMS, s.nPath, q, what, func(ans batchAnswer) any {
		resp := PathResponse{Source: int(src), Target: int(tgt), Found: len(path) > 0,
			Distance: int32(len(path) - 1), Path: make([]int, len(path)), Stats: ans.stats}
		for i, v := range path {
			resp.Path[i] = int(v)
		}
		return resp
	})
}

func (s *Server) handleSSSP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var req SSSPRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	src, ok := s.vertexArg(w, "source", req.Source, true)
	if !ok {
		return
	}
	tgt, ok := s.vertexArg(w, "target", req.Target, false)
	if !ok {
		return
	}
	var res *bgl.SSSPResult
	q := &batchQuery{solo: s.solo(func(e *engine, opts []bgl.Option) (sweepStats, error) {
		sres, err := e.cl.SSSP(s.dg, src, append(opts, bgl.WithDelta(req.Delta))...)
		if sres == nil {
			return sweepStats{}, err
		}
		s.recordFaults(sres.Faults)
		res = sres
		return runStats(sres.SimTime, sres.SimComm, sres.TotalWords(), sres.Wall, "epoch", len(sres.PerEpoch)), err
	})}
	what := func() string { return fmt.Sprintf("sssp from %d", src) }
	s.serve(w, t0, req.TimeoutMS, s.nSSSP, q, what, func(ans batchAnswer) any {
		resp := SSSPResponse{Source: int(src), Reached: res.Reached(), Stats: ans.stats}
		if req.Target != nil {
			d := res.Dist[tgt]
			found := d != graph.MaxDist
			resp.Found, resp.Distance = &found, &d
		}
		if req.Dists {
			resp.Dists = res.Dist
		}
		return resp
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, "/v1/stats needs GET, got %s", r.Method)
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleHealthz is the three-state liveness probe: "ok" (200) with a
// full replica pool, "degraded" (200 — still serving, a load balancer
// should not evict) while quarantined replicas rebuild, "down"/
// "draining" (503) when no replica is live or shutdown began. The 503s
// are plain health documents, not ErrorResponses — probes are not
// query traffic and must not skew the rejected/error counters.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, HealthzResponse{Status: "draining"})
		return
	}
	q := int(s.quarantined.Load())
	if s.live.Load() <= 0 {
		writeJSON(w, http.StatusServiceUnavailable, HealthzResponse{Status: "down", Quarantined: q})
		return
	}
	if q > 0 {
		writeJSON(w, http.StatusOK, HealthzResponse{Status: "degraded", Quarantined: q})
		return
	}
	writeJSON(w, http.StatusOK, HealthzResponse{Status: "ok"})
}

// Stats snapshots the service statistics the /v1/stats endpoint serves.
func (s *Server) Stats() StatsResponse {
	g := s.cfg.Graph
	st := StatsResponse{
		UptimeS: time.Since(s.start).Seconds(),
		Graph: GraphInfo{
			N: g.N(), Edges: g.NumEdges(), Weighted: g.Weighted(),
			Mesh:      fmt.Sprintf("%dx%d", s.cfg.R, s.cfg.C),
			Partition: s.cfg.Partition.String(),
			Wire:      wire.String(),
			Replicas:  s.cfg.Replicas,
		},
		Batching: BatchingInfo{
			MaxBatch:   s.cfg.MaxBatch,
			MaxWaiting: s.cfg.MaxWaiting,
		},
		Queries: QueryCounts{
			BFS:              s.nBFS.Value(),
			Path:             s.nPath.Value(),
			SSSP:             s.nSSSP.Value(),
			Batches:          s.batcher.Batches(),
			BatchedQueries:   s.batcher.BatchedQueries(),
			Rejected:         s.nRejected.Value(),
			Errors:           s.nErrors.Value(),
			DeadlineExceeded: s.nDeadline.Value(),
			Inflight:         s.waiting.Load(),
		},
		Replicas: ReplicaInfo{
			Configured:  s.cfg.Replicas,
			Live:        int(s.live.Load()),
			Quarantined: int(s.quarantined.Load()),
			Panics:      s.nPanics.Value(),
			Rebuilds:    s.nRebuilds.Value(),
		},
	}
	if st.Queries.Batches > 0 {
		st.Queries.MeanBatchSize = float64(st.Queries.BatchedQueries) / float64(st.Queries.Batches)
	}
	s.faultMu.Lock()
	faults := s.faultTotals
	s.faultMu.Unlock()
	if s.cfg.Fault != nil || !faults.Zero() {
		fi := &FaultInfo{
			Injected:      faults.Injected(),
			Retries:       faults.Retries,
			ChecksumFails: faults.ChecksumFails,
			DupsDiscarded: faults.DupsDiscarded,
			RetrySeconds:  faults.RetrySeconds,
		}
		if s.cfg.Fault != nil {
			fi.Plan = s.cfg.Fault.String()
		}
		st.Faults = fi
	}
	return st
}
