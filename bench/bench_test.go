package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload to a graph of 2000 vertices and a cycle of a
// few ops, keeping everything else — mesh, partitioning, options, query
// mix — as the benchmark runs it.
func tiny(w workload) workload {
	w.n = 2000
	switch {
	case w.mix:
		w.cycle = 5 // one of each query kind, in the benchmark's proportions
	case w.kind == opMulti:
		w.cycle = 2
	default:
		w.cycle = 4
	}
	return w
}

var tinyConfig = runConfig{seed: 3, seconds: 0, probeSpan: 100 * time.Microsecond}

// TestWorkloadsEndToEnd runs every workload end to end at a tiny
// scale, untraced and traced: every op is checked against its oracle,
// and the metrics reported are exactly the ones BENCHMARK.json names.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			rep, err := measure(w, tinyConfig)
			if err != nil {
				t.Fatal(err)
			}
			if rep.attempted != w.cycle || rep.failed != 0 {
				t.Fatalf("attempted %d failed %d, want %d and 0", rep.attempted, rep.failed, w.cycle)
			}
			for _, d := range endToEnd {
				if s, ok := rep.metrics[d.name]; !ok || !(s.value > 0) || math.IsInf(s.value, 0) {
					t.Errorf("%s = %v (present %v), want a positive number", d.name, s.value, ok)
				}
			}

			cfg := tinyConfig
			cfg.trace = true
			cfg.out = t.TempDir()
			rep, err = measure(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 {
				t.Fatalf("traced: %d of %d ops failed", rep.failed, rep.attempted)
			}
			for name, s := range rep.metrics {
				if !slices.ContainsFunc(perLayer, func(d metricDef) bool { return d.name == name }) {
					t.Errorf("traced run reports %s, which BENCHMARK.json does not name", name)
				}
				if math.IsNaN(s.value) || math.IsInf(s.value, 0) {
					t.Errorf("%s = %v", name, s.value)
				}
			}
			for _, want := range appliesTo(w) {
				if rep.metrics[want].value <= 0 {
					t.Errorf("%s = %v, want it measured on %s", want, rep.metrics[want].value, w.name)
				}
			}
			raw, err := os.ReadFile(cfg.out + "/" + w.name + ".trace.json")
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct{ Name string } `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Fatalf("trace file: %v, %d events", err, len(doc.TraceEvents))
			}
		})
	}
}

// appliesTo lists per-layer metrics that must be measured (non-zero) on
// the workload: every layer's probes everywhere, and the workload's own
// engine's or service's counts.
func appliesTo(w workload) []string {
	names := []string{
		"graph.generate_ms", "partition.distribute_ms", "partition.store_mb", "partition.edges_max_over_mean",
		"localindex.get_ns", "localindex.sortset_ns_per_id", "localindex.union_ns_per_id",
		"frontier.encode_ns_per_id", "frontier.decode_ns_per_id", "frontier.words_per_id",
		"pool.dispatch_ns_per_chunk", "pool.speedup_w2",
		"comm.world_run_us", "comm.pingpong_us", "comm.allreduce_us",
		"collective.alltoall_us", "collective.twophase_fold_us", "collective.twophase_expand_us", "collective.fold_async_us",
		"host.peak_rss_mb",
	}
	switch w.kind {
	case opBFS:
		names = append(names, "bfs.levels_per_op", "bfs.edges_scanned_per_op", "bfs.wall_over_serial", "bfs.sim_scan_s",
			"localindex.probes_per_op", "comm.msgs_per_op", "comm.sim_comm_s", "torus.avg_hops_per_msg", "collective.sim_s")
	case opSSSP:
		names = append(names, "sssp.epochs_per_op", "sssp.relaxations_per_op", "sssp.wall_over_dijkstra", "graph.dijkstra_ms")
	case opMulti:
		names = append(names, "bfs.multibfs_ms_per_source", "bfs.multibfs_over_single", "bfs.multibfs_2lane_over_single")
	case opService:
		names = append(names, "graphd.newserver_ms", "graphd.replica_mb", "graphd.sweep_ms_p50", "graphd.overhead_ms_p50",
			"graphd.mean_batch_lanes", "graphd.simexec_s_per_query", "graphd.words_per_query", "graphd.bfs_ms_p50")
		if w.mix {
			names = append(names, "graphd.path_ms_p50", "graphd.sssp_ms_p50")
		} else {
			names = append(names, "graphd.unbatched_over_batched_qps")
		}
	}
	return names
}

// TestOpListRepeatsAfterACycle: op i+cycle is op i again, so a run of
// any whole number of cycles reports the same simulated seconds and
// wire words per op.
func TestOpListRepeatsAfterACycle(t *testing.T) {
	for _, w := range workloads[:4] {
		w := tiny(w)
		fx, _, err := build(w, 1, nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		fx.prepare(1, nil, -1)
		first, second := newCounters(), newCounters()
		for i := 0; i < w.cycle; i++ {
			if _, err := fx.op(i, 0, first, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := fx.op(i+w.cycle, 0, second, nil); err != nil {
				t.Fatal(err)
			}
		}
		if first.sum["sim_time"] != second.sum["sim_time"] || first.sum["words"] != second.sum["words"] {
			t.Errorf("%s: second cycle moved %v words in %v simulated s, first %v in %v",
				w.name, second.sum["words"], second.sum["sim_time"], first.sum["words"], first.sum["sim_time"])
		}
		fx.close()
	}
}

// TestWrongOracleCountsAsFailed injects a wrong oracle for one source:
// its ops are counted as failed, their latencies stay out of the
// percentiles, and the pass runs to the end.
func TestWrongOracleCountsAsFailed(t *testing.T) {
	w := tiny(workloads[0])
	fx, _, err := build(w, 1, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	fx.prepare(1, nil, -1)
	fx.(*engineFixture).oracle[1] ^= 1
	p := runPass(fx, w.clients, w.cycle, 0, nil)
	if p.attempted != w.cycle || p.failed != 1 || len(p.latMS) != w.cycle-1 {
		t.Fatalf("attempted %d failed %d latencies %d, want %d, 1, %d", p.attempted, p.failed, len(p.latMS), w.cycle, w.cycle-1)
	}
	if got := p.c.sum["ops"]; got != float64(w.cycle-1) {
		t.Fatalf("counters saw %v ops, want the %d that passed", got, w.cycle-1)
	}
}

// TestClosedListenerCountsAsFailed stops the server under the clients:
// every query errors, every one is counted as failed, none contributes
// a latency, and the pass still ends.
func TestClosedListenerCountsAsFailed(t *testing.T) {
	w := tiny(workloads[4])
	fx, _, err := build(w, 1, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	fx.prepare(1, nil, -1)
	fx.close()
	p := runPass(fx, w.clients, w.cycle, 0, nil)
	if p.attempted < w.cycle || p.failed != p.attempted || len(p.latMS) != 0 {
		t.Fatalf("attempted %d failed %d latencies %d, want every op failed", p.attempted, p.failed, len(p.latMS))
	}
	rep := &report{attempted: p.attempted, failed: p.failed, metrics: results{}}
	if rep.result().Correct {
		t.Fatal("a run with failed ops reports correct")
	}
}

// TestTailQuantile: p90 is reported only with at least ten samples
// beyond it; shorter runs fall back to the highest quantile that has
// ten, and never below the median.
func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		q    float64
	}{
		{1000, 0.90, 0.90},
		{100, 0.90, 0.90},
		{99, 0.90, 1 - 10.0/99},
		{50, 0.90, 0.80},
		{20, 0.90, 0.5},
		{3, 0.90, 0.5},
		{1000, 0.99, 0.99},
		{640, 0.99, 1 - 10.0/640},
	} {
		if got := tailQuantile(tc.n, tc.want); math.Abs(got-tc.q) > 1e-12 {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", tc.n, tc.want, got, tc.q)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, descending
	}
	if got := tail(xs, 0.90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (ten samples beyond)", got)
	}
	if got := median(xs); got != 50 {
		t.Errorf("median of 1..100 = %v, want 50", got)
	}
}

// TestCycleStats: the wall metrics are taken per trip through the op
// list and read at the quiet quartile of the trips, so slow trips (the
// host's other tenants) move none of them until they are three in four,
// where two in five here would have set the whole pass's p90 and pulled
// its throughput down.
func TestCycleStats(t *testing.T) {
	const cycle, cycles = 20, 5
	var ops []opSample
	var now time.Duration
	for c := 0; c < cycles; c++ {
		for j := 0; j < cycle; j++ {
			d := time.Duration(j+1) * time.Millisecond // 1..20 ms
			if c == 1 || c == 3 {
				d *= 3
			}
			now += d
			ops = append(ops, opSample{c*cycle + j, d.Seconds() * 1e3, now})
		}
	}
	slices.Reverse(ops) // clients hand their samples over in no particular order
	p := &pass{cycles: cycleStats(ops, cycle)}
	if len(p.cycles) != cycles {
		t.Fatalf("%d cycles, want %d", len(p.cycles), cycles)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	for c, got := range p.cycles {
		want := cycleStat{p50: 10, tail: 18, sPerOp: 0.210 / cycle}
		if c == 1 || c == 3 {
			want = cycleStat{30, 54, 0.630 / cycle}
		}
		if !near(got.p50, want.p50) || !near(got.tail, want.tail) || !near(got.sPerOp, want.sPerOp) {
			t.Errorf("cycle %d = %+v, want %+v", c, got, want)
		}
	}
	if p50, p90, rate := p.opMSP50(), p.opMSP90(), p.opsPerS(); !near(p50, 10) || !near(p90, 18) || !near(rate, cycle/0.210) {
		t.Errorf("p50 %v ms, p90 %v ms, %v ops/s, want the quiet cycles' 10, 18, %v", p50, p90, rate, cycle/0.210)
	}
	// Fewer than ten samples beyond p90 in the whole pass: the tail falls
	// back with tailQuantile, here to the median.
	if short := cycleStats(ops[:cycle], cycle); len(short) != 1 || short[0].tail != short[0].p50 {
		t.Errorf("a 20-op pass reports %+v, want its tail to be its median", short)
	}
	if none := new(pass); none.opMSP50() != 0 || none.opsPerS() != 0 {
		t.Errorf("a pass without cycles reports %v ms, %v ops/s, want 0", none.opMSP50(), none.opsPerS())
	}
}

// TestSpreadMatchesPython pins quartiles and spread to what Python's
// statistics.quantiles(xs, n=4) and statistics.median give.
func TestSpreadMatchesPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(xs), 5.5/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
}

// TestSelfTime: a span's self time is its duration minus what its
// children cover, overlapping children counted once and children
// clipped to the parent.
func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "op", start: 0, end: 100 * ms, parent: -1},
		{name: "a", start: 10 * ms, end: 40 * ms, parent: 0},
		{name: "b", start: 30 * ms, end: 60 * ms, parent: 0},  // overlaps a by 10
		{name: "c", start: 90 * ms, end: 120 * ms, parent: 0}, // runs 20 past the parent
		{name: "a1", start: 15 * ms, end: 20 * ms, parent: 1}, // grandchild: a's business only
		{name: "root2", start: 0, end: 5 * ms, parent: -1},    // childless
	}
	want := []time.Duration{40 * ms, 25 * ms, 30 * ms, 30 * ms, 5 * ms, 5 * ms}
	if got := selfTime(spans); !slices.Equal(got, want) {
		t.Errorf("selfTime = %v, want %v", got, want)
	}

	rec := newRecorder()
	op := rec.begin("bench.op", -1, 7, 0)
	call := rec.begin("bfs.run", op, 7, 0)
	rec.end(call)
	rec.end(op)
	tot := rec.totals()
	if len(tot) != 2 || tot[0].name != "bench.op" || tot[0].self != tot[0].total-tot[1].total {
		t.Errorf("totals = %+v", tot)
	}
	var nilRec *recorder // what untraced runs pass
	nilRec.end(nilRec.begin("x", -1, 0, 0))
	if nilRec.totals() != nil {
		t.Error("nil recorder recorded something")
	}
}

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestNamesMatchBenchmarkJSON holds the tables in this package and
// BENCHMARK.json equal, and checks that what a run prints as its last
// line carries exactly the names the file promises.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bj.Paths, []string{"bench"}) || !slices.Equal(bj.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths %v command %v", bj.Paths, bj.Command)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, this package %q (or their whys differ)", i, bj.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why is %d characters, the contract allows one line of 200", w.name, len(w.why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d + %d metrics, this package %d + %d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if got := bj.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, this package %+v", i, got, d)
		}
	}
	for i, d := range perLayer {
		if got := bj.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, this package %+v", i, got, d)
		}
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d; the -seconds default is %d", bj.RunSeconds, runSeconds)
	}

	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		if err := json.NewEncoder(&out).Encode((&report{trace: traced, attempted: 1, metrics: results{}}).result()); err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct           *bool
			Attempted, Failed *int
			Metrics           map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(&out)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(defs(traced)) {
			t.Fatalf("result line %+v", line)
		}
		for _, d := range defs(traced) {
			if got, ok := line.Metrics[d.name]; !ok || got.Unit != d.unit || got.Value == nil {
				t.Errorf("result line lacks %s in %s", d.name, d.unit)
			}
		}
	}
}

// TestContractFlags: the driver passes --trace with its value as the
// next argument; people pass a bare -trace.
func TestContractFlags(t *testing.T) {
	got := joinTraceValue([]string{"--workload", "x", "--seed", "4", "--seconds", "12", "--trace", "0"})
	if want := []string{"--workload", "x", "--seed", "4", "--seconds", "12", "-trace=0"}; !slices.Equal(got, want) {
		t.Errorf("joinTraceValue = %v, want %v", got, want)
	}
	if got := joinTraceValue([]string{"-trace", "-out", "d"}); !slices.Equal(got, []string{"-trace", "-out", "d"}) {
		t.Errorf("bare -trace rewritten to %v", got)
	}
	var out bytes.Buffer
	if err := run([]string{"--workload", "no-such", "--trace", "1"}, &out); err == nil || !strings.Contains(err.Error(), "no-such") {
		t.Errorf("unknown workload: err = %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("a failed run printed %q", out.String())
	}
}
