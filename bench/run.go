package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// runConfig is everything a run takes from the command line.
type runConfig struct {
	seed    int64
	seconds float64 // how long the timed loop measures
	trace   bool    // report the per-layer metrics instead of the end-to-end ones
	out     string  // where a traced run writes its Chrome trace ("" = nowhere)
	// setupBudget is how long the fixture is built again and again, past
	// the first minBuilds builds, for setup_s.
	setupBudget time.Duration
	// probeSpan is how long one timing of a layer probe repeats its
	// call; a probe takes probeReps timings.
	probeSpan time.Duration
}

// report is the outcome of one run of one workload.
type report struct {
	workload          string
	trace             bool
	attempted, failed int
	metrics           results
	spans             []spanTotal
}

const (
	// setup_s is read over at least minBuilds cold fixture builds, and
	// over as many more (up to maxBuilds) as fit in the run's setupBudget:
	// a 13 ms build needs more samples than a 200 ms one, and the builds
	// have to span more time than one of the host's slow bursts (a second
	// or two) for any of them to be quiet.
	minBuilds = 5
	maxBuilds = 100

	warmupOps = 8 // untimed ops before anything is measured
)

// opSample is one successful op of a pass.
type opSample struct {
	index int           // position in the pass; index / cycle is the cycle it belongs to
	ms    float64       // wall of the one public call
	end   time.Duration // when it completed, since the pass began
}

// cycleStat summarises one trip through the op list inside a pass: the
// median and tail latency of its ops, and the wall seconds it spent per
// op (what throughput is the inverse of).
type cycleStat struct{ p50, tail, sPerOp float64 }

// pass is one closed-loop run over the op list.
type pass struct {
	latMS             []float64   // wall per successful op
	cycles            []cycleStat // per trip through the op list, in order
	attempted, failed int
	allocBytes        uint64
	mallocs           uint64
	gcCycles          uint32
	gcPauseNS         uint64
	c                 *counters
}

func (p *pass) ok() int { return p.attempted - p.failed }

// runPass has the workload's clients pull ops off the shared list, one
// at a time each, until seconds have passed and the op count is a whole
// number of cycles (so seconds = 0 runs exactly one cycle). Failed ops
// are counted and their latencies dropped; nothing aborts the pass.
func runPass(fx fixture, clients, cycle int, seconds float64, rec *recorder) *pass {
	type clientState struct {
		ops               []opSample
		attempted, failed int
		c                 *counters
	}
	states := make([]clientState, clients)
	for i := range states {
		states[i] = clientState{ops: make([]opSample, 0, 1<<14), c: newCounters()}
	}
	var next atomic.Int64
	var stopped atomic.Bool
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for cl := range states {
		wg.Add(1)
		go func(cl int, st *clientState) {
			defer wg.Done()
			for !stopped.Load() {
				i := int(next.Add(1) - 1)
				if i > 0 && i%cycle == 0 && !time.Now().Before(deadline) {
					stopped.Store(true)
					return
				}
				d, err := fx.op(i, cl, st.c, rec)
				st.attempted++
				if err != nil {
					st.failed++
					continue
				}
				st.ops = append(st.ops, opSample{i, d.Seconds() * 1e3, time.Since(start)})
			}
		}(cl, &states[cl])
	}
	wg.Wait()
	p := &pass{c: newCounters()}
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.mallocs = after.Mallocs - before.Mallocs
	p.gcCycles = after.NumGC - before.NumGC
	p.gcPauseNS = after.PauseTotalNs - before.PauseTotalNs
	var ops []opSample
	for _, st := range states {
		ops = append(ops, st.ops...)
		p.attempted += st.attempted
		p.failed += st.failed
		p.c.merge(st.c)
	}
	for _, o := range ops {
		p.latMS = append(p.latMS, o.ms)
	}
	p.cycles = cycleStats(ops, cycle)
	return p
}

// cycleStats cuts a pass into its trips through the op list and
// summarises each on its own: the median latency, the tail percentile
// (the one tailQuantile grants the whole pass) and the wall per op, a
// cycle's wall running from the completion of the last op of the cycle
// before it to the completion of its own last op. A cycle in which
// every op failed has no statistics.
func cycleStats(ops []opSample, cycle int) []cycleStat {
	slices.SortFunc(ops, func(a, b opSample) int { return a.index - b.index })
	q := tailQuantile(len(ops), 0.90)
	var stats []cycleStat
	var began time.Duration
	for len(ops) > 0 {
		n := 1
		for n < len(ops) && ops[n].index/cycle == ops[0].index/cycle {
			n++
		}
		lat := make([]float64, n)
		ended := began
		for i, o := range ops[:n] {
			lat[i] = o.ms
			ended = max(ended, o.end)
		}
		if ended > began { // with 2 clients a tiny cycle can end inside the one before
			stats = append(stats, cycleStat{median(lat), quantile(lat, q), (ended - began).Seconds() / float64(n)})
		}
		began, ops = ended, ops[n:]
	}
	return stats
}

// quietQuartile is where over a pass's cycles a wall metric is read: the
// value a quarter of the cycles are at or below. Every cycle is the same
// multiset of ops, so on a quiet host the cycles agree and any quantile
// over them would do. The host is shared: its other tenants slow some
// cycles down, in bursts, and never speed one up. Slowing a tenth of the
// ops is enough to own the whole pass's p90, and the median over cycles
// flips between the two levels once half the cycles are touched; the
// quiet quartile reads the same with such a neighbour and without
// (README.md has the measurements). Anything the program itself does to
// its tail, garbage collections for one, is in every cycle and so in
// the quiet ones too.
const quietQuartile = 0.25

// quiet returns the quietQuartile over the pass's cycles of one of their
// statistics (all are lower-is-better); 0 for a pass without cycles.
func (p *pass) quiet(pick func(cycleStat) float64) float64 {
	xs := make([]float64, len(p.cycles))
	for i, c := range p.cycles {
		xs[i] = pick(c)
	}
	return quantile(xs, quietQuartile)
}

func (p *pass) opMSP50() float64 { return p.quiet(func(c cycleStat) float64 { return c.p50 }) }
func (p *pass) opMSP90() float64 { return p.quiet(func(c cycleStat) float64 { return c.tail }) }

// opsPerS is the throughput of the pass's quiet cycles.
func (p *pass) opsPerS() float64 {
	return ratio(1, p.quiet(func(c cycleStat) float64 { return c.sPerOp }))
}

// measure runs one workload once: build the fixture several times,
// compute the oracles, warm up, then either the timed pass (end-to-end
// metrics) or, traced, a short untraced pass, a traced pass and the
// layer probes (per-layer metrics).
func measure(w workload, cfg runConfig) (*report, error) {
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	setup := rec.begin("bench.setup", -1, -1, 0)
	var fx fixture
	var builds []buildTimes
	for t0 := time.Now(); len(builds) < minBuilds || (len(builds) < maxBuilds && time.Since(t0) < cfg.setupBudget); {
		if fx != nil {
			fx.close()
			fx = nil
		}
		runtime.GC() // every build starts cold: nothing of the last one is live
		var bt buildTimes
		var err error
		if fx, bt, err = build(w, cfg.seed, rec, setup); err != nil {
			return nil, err
		}
		builds = append(builds, bt)
	}
	defer fx.close()
	oracle := fx.prepare(cfg.seed, rec, setup)
	rec.end(setup)

	runPass(fx, w.clients, min(w.cycle, warmupOps), 0, nil)
	liveMB := heapMB()

	rep := &report{workload: w.name, trace: cfg.trace, metrics: results{}}
	if !cfg.trace {
		p := runPass(fx, w.clients, w.cycle, cfg.seconds, nil)
		rep.attempted, rep.failed = p.attempted, p.failed
		endToEndMetrics(rep.metrics, p, builds, liveMB)
		return rep, nil
	}
	base := runPass(fx, w.clients, w.cycle, cfg.seconds/3, nil)
	traced := runPass(fx, w.clients, w.cycle, cfg.seconds/3, rec)
	rep.attempted, rep.failed = base.attempted+traced.attempted, base.failed+traced.failed
	layerMetrics(rep.metrics, w, base, traced, builds, oracle, liveMB, rec)
	if err := runProbes(rep.metrics, w, fx, base, cfg, rec); err != nil {
		return nil, err
	}
	rep.metrics.set("host.peak_rss_mb", peakRSSMB(), 1)
	rep.spans = rec.totals()
	if cfg.out != "" {
		if err := writeTrace(rec, filepath.Join(cfg.out, w.name+".trace.json")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func writeTrace(rec *recorder, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// column extracts one duration of every build, in milliseconds.
func column(builds []buildTimes, pick func(buildTimes) time.Duration) []float64 {
	out := make([]float64, len(builds))
	for i, b := range builds {
		out[i] = pick(b).Seconds() * 1e3
	}
	return out
}

// endToEndMetrics fills in what a user of the system sees, from the
// untraced timed pass.
func endToEndMetrics(m results, p *pass, builds []buildTimes, liveMB float64) {
	n, ok := len(p.latMS), float64(max(p.ok(), 1))
	m.set("setup_s", quantile(column(builds, func(b buildTimes) time.Duration { return b.total }), quietQuartile)/1e3, len(builds))
	m.set("op_ms_p50", p.opMSP50(), n)
	m.set("op_ms_p90", p.opMSP90(), n)
	m.set("ops_per_s", p.opsPerS(), n)
	m.set("alloc_mb_per_op", float64(p.allocBytes)/1e6/float64(max(p.attempted, 1)), p.attempted)
	m.set("allocs_per_op", float64(p.mallocs)/float64(max(p.attempted, 1)), p.attempted)
	m.set("live_heap_mb", liveMB, 1)
	m.set("simexec_s", p.c.sum["sim_time"]/ok, p.ok())
	m.set("wire_words", p.c.sum["words"]/ok, p.ok())
}

// layerMetrics fills in the per-layer counts and ratios that come from
// the passes themselves; runProbes adds the timed calls into each
// layer. Counts come from the traced pass (they repeat exactly, traced
// or not); host-runtime numbers from the untraced one.
func layerMetrics(m results, w workload, base, traced *pass, builds []buildTimes, ot oracleTimes, liveMB float64, rec *recorder) {
	c, n := traced.c, traced.ok()
	p50 := base.opMSP50()

	m.set("graph.generate_ms", median(column(builds, func(b buildTimes) time.Duration { return b.generate })), len(builds))
	m.set("graph.serial_bfs_ms", median(ot.bfsMS), len(ot.bfsMS))
	m.set("graph.dijkstra_ms", median(ot.dijkstraMS), len(ot.dijkstraMS))

	m.set("comm.msgs_per_op", c.per("msgs"), n)
	m.set("comm.sim_comm_s", c.per("sim_comm"), n)
	m.set("comm.sim_hidden_frac", ratio(c.sum["sim_overlap"], c.sum["sim_comm"]), n)
	m.set("torus.avg_hops_per_msg", ratio(c.sum["hops"], c.sum["msgs"]), n)
	m.set("torus.max_link_mb", c.per("max_link_bytes")/1e6, n)
	m.set("collective.expand_words_per_op", c.per("expand_words"), n)
	m.set("collective.fold_words_per_op", c.per("fold_words"), n)
	m.set("collective.fold_dup_frac", ratio(c.sum["dups"], c.sum["dups"]+c.sum["fold_words"]), n)
	m.set("collective.sim_s", c.per("sim_collective"), n)
	m.set("localindex.probes_per_op", c.per("probes"), n)

	if w.kind != opService { // runProbes measures a replica's Distribute for the service
		m.set("partition.distribute_ms", median(column(builds, func(b buildTimes) time.Duration { return b.distribute })), len(builds))
		m.set("partition.store_mb", builds[len(builds)-1].storeMB, 1)
	}
	switch w.kind {
	case opBFS, opMulti:
		serial := median(ot.bfsMS) // the plain BFS runs one op replaces
		if w.kind == opMulti {
			serial *= multiLanes
		}
		m.set("bfs.levels_per_op", c.per("levels"), n)
		m.set("bfs.bottomup_levels_per_op", c.per("bottomup_levels"), n)
		m.set("bfs.edges_scanned_per_op", c.per("edges"), n)
		m.set("bfs.wall_ms_per_level", ratio(p50, c.per("levels")), len(base.latMS))
		m.set("bfs.wall_over_serial", ratio(p50, serial), len(base.latMS))
		m.set("bfs.sim_scan_s", c.per("sim_scan"), n)
	case opSSSP:
		m.set("sssp.epochs_per_op", c.per("epochs"), n)
		m.set("sssp.buckets_per_op", c.per("buckets"), n)
		m.set("sssp.relaxations_per_op", c.per("relaxations"), n)
		m.set("sssp.resettle_frac", ratio(c.sum["resettles"], c.sum["relaxations"]), n)
		m.set("sssp.wall_ms_per_epoch", ratio(p50, c.per("epochs")), len(base.latMS))
		m.set("sssp.wall_over_dijkstra", ratio(p50, median(ot.dijkstraMS)), len(base.latMS))
	case opService:
		// Latency splits come from the untraced pass; the request
		// span's self time (what the server does not account for) from
		// the traced one.
		s := base.c.samples
		m.set("graphd.newserver_ms", median(column(builds, func(b buildTimes) time.Duration { return b.newServer })), len(builds))
		m.set("graphd.replica_mb", liveMB/2, 1)
		m.set("graphd.queue_wait_ms_p50", median(s["queue_wait_ms"]), len(s["queue_wait_ms"]))
		m.set("graphd.queue_wait_ms_p90", tail(s["queue_wait_ms"], 0.90), len(s["queue_wait_ms"]))
		m.set("graphd.sweep_ms_p50", median(s["sweep_ms"]), len(s["sweep_ms"]))
		m.set("graphd.overhead_ms_p50", median(rec.selfOf("graphd.request")), n)
		m.set("graphd.mean_batch_lanes", base.c.per("lanes"), base.ok())
		m.set("graphd.simexec_s_per_query", base.c.per("sim_time"), base.ok())
		m.set("graphd.words_per_query", base.c.per("words"), base.ok())
		m.set("graphd.bfs_ms_p50", median(s["bfs_ms"]), len(s["bfs_ms"]))
		m.set("graphd.bfs_ms_p99", tail(s["bfs_ms"], 0.99), len(s["bfs_ms"]))
		m.set("graphd.path_ms_p50", median(s["path_ms"]), len(s["path_ms"]))
		m.set("graphd.sssp_ms_p50", median(s["sssp_ms"]), len(s["sssp_ms"]))
		m.set("graphd.rejected_frac", ratio(base.c.sum["rejected"], float64(base.attempted)), base.attempted)
	}

	ops := float64(max(base.attempted, 1))
	m.set("host.gc_cycles_per_op", float64(base.gcCycles)/ops, base.attempted)
	m.set("host.gc_pause_ms_per_op", float64(base.gcPauseNS)/1e6/ops, base.attempted)
	m.set("bench.trace_overhead_frac", ratio(traced.opMSP50(), p50)-1, len(traced.latMS))
	m.set("bench.failed_frac", ratio(float64(base.failed+traced.failed), float64(base.attempted+traced.attempted)), base.attempted+traced.attempted)
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
