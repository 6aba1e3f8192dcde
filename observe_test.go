package bgl

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/traceverify"
)

// traceGrid is the mesh x codec x schedule matrix the trace invariants
// are exercised over.
var traceGrid = []struct {
	name  string
	r, c  int
	wire  WireMode
	async bool
}{
	{"1x1-auto-sync", 1, 1, WireAuto, false},
	{"1x4-auto-sync", 1, 4, WireAuto, false},
	{"1x4-hybrid-async", 1, 4, WireHybrid, true},
	{"4x4-auto-async", 4, 4, WireAuto, true},
	{"4x4-hybrid-sync", 4, 4, WireHybrid, false},
	{"4x4-hybrid-async", 4, 4, WireHybrid, true},
}

func traceCluster(t *testing.T, r, c int) (*Cluster, *DistGraph, Vertex) {
	t.Helper()
	g, err := GenerateWeighted(3000, 8, 99, WithMaxWeight(255))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{R: r, C: c})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cl.Distribute(g)
	if err != nil {
		t.Fatal(err)
	}
	return cl, dg, g.LargestComponentVertex()
}

// TestTraceCheckBFS runs the full pipeline — record, export Chrome
// JSON, re-parse, re-derive the clock invariant from the spans alone,
// and cross-check the derivation against the Result — over the grid.
func TestTraceCheckBFS(t *testing.T) {
	for _, tc := range traceGrid {
		t.Run(tc.name, func(t *testing.T) {
			cl, dg, src := traceCluster(t, tc.r, tc.c)
			tr := NewTrace()
			res, err := cl.BFS(dg, src, WithWire(tc.wire), WithAsync(tc.async), WithTrace(tr))
			if err != nil {
				t.Fatal(err)
			}
			_, d, err := traceverify.Export(tr)
			if err != nil {
				t.Fatal(err)
			}
			if err := traceverify.BFS(d, res); err != nil {
				t.Fatal(err)
			}
			if len(d.Ranks) != tc.r*tc.c {
				t.Fatalf("trace covers %d ranks, want %d", len(d.Ranks), tc.r*tc.c)
			}
		})
	}
}

// TestTraceCheckSSSP is the Δ-stepping counterpart, checking epoch
// spans (phase names, buckets, relaxations) against the Result.
func TestTraceCheckSSSP(t *testing.T) {
	for _, tc := range traceGrid {
		t.Run(tc.name, func(t *testing.T) {
			cl, dg, src := traceCluster(t, tc.r, tc.c)
			tr := NewTrace()
			res, err := cl.SSSP(dg, src, WithWire(tc.wire), WithAsync(tc.async), WithDelta(128), WithTrace(tr))
			if err != nil {
				t.Fatal(err)
			}
			_, d, err := traceverify.Export(tr)
			if err != nil {
				t.Fatal(err)
			}
			if err := traceverify.SSSP(d, res); err != nil {
				t.Fatal(err)
			}
			if len(d.Epochs) == 0 {
				t.Fatal("no epoch spans recorded")
			}
		})
	}
}

// TestTraceCheckDirectionOptimizing pins the per-level dir arg: the
// engines stamp rec.dir before the level span closes, so a dirop run
// whose middle levels go bottom-up must show that in the trace (the
// cross-check against Result.PerLevel then proves agreement). Guards
// the caller-stamped-after-span-close regression.
func TestTraceCheckDirectionOptimizing(t *testing.T) {
	cl, dg, src := traceCluster(t, 2, 2)
	tr := NewTrace()
	res, err := cl.BFS(dg, src, WithDirection(DirectionOptimizing), WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	_, d, err := traceverify.Export(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := traceverify.BFS(d, res); err != nil {
		t.Fatal(err)
	}
	bottomUp := 0
	for _, lv := range d.Levels {
		if lv.Args["dir"] != 0 {
			bottomUp++
		}
	}
	if bottomUp == 0 {
		t.Fatal("dirop run recorded no bottom-up level spans; the dir arg is not exercised")
	}
}

// TestTraceDoesNotPerturbClock asserts recording is observation only:
// the traced run's simulated times equal the untraced run's.
func TestTraceDoesNotPerturbClock(t *testing.T) {
	cl, dg, src := traceCluster(t, 2, 2)
	bare, err := cl.BFS(dg, src, WithWire(WireHybrid))
	if err != nil {
		t.Fatal(err)
	}
	traced, err := cl.BFS(dg, src, WithWire(WireHybrid), WithTrace(NewTrace()))
	if err != nil {
		t.Fatal(err)
	}
	if bare.SimTime != traced.SimTime || bare.SimComm != traced.SimComm || bare.SimOverlap != traced.SimOverlap {
		t.Fatalf("tracing moved the clock: %g/%g/%g vs %g/%g/%g",
			bare.SimTime, bare.SimComm, bare.SimOverlap, traced.SimTime, traced.SimComm, traced.SimOverlap)
	}
}

// TestTraceGoldenDeterminism asserts the exported Chrome JSON is
// byte-identical across runs of the same configuration.
func TestTraceGoldenDeterminism(t *testing.T) {
	export := func() []byte {
		cl, dg, src := traceCluster(t, 2, 2)
		tr := NewTrace()
		if _, err := cl.SSSP(dg, src, WithWire(WireHybrid), WithDelta(64), WithTrace(tr)); err != nil {
			t.Fatal(err)
		}
		data, err := tr.Chrome()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatalf("trace export not deterministic: %d vs %d bytes", len(a), len(b))
	}
}

// TestTraceCorruptionDetected asserts the checker rejects a trace whose
// totals no longer match its spans (a deliberate 10% clock inflation).
func TestTraceCorruptionDetected(t *testing.T) {
	cl, dg, src := traceCluster(t, 1, 4)
	tr := NewTrace()
	if _, err := cl.BFS(dg, src, WithTrace(tr)); err != nil {
		t.Fatal(err)
	}
	data, err := tr.Chrome()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := trace.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Check(doc); err != nil {
		t.Fatalf("uncorrupted trace must pass: %v", err)
	}
	for rank := range doc.Totals {
		doc.Totals[rank].Clock *= 1.10
		break
	}
	if _, err := trace.Check(doc); err == nil {
		t.Fatal("corrupted totals passed the checker")
	}
}

// TestMultiBFSTrace covers the batched multi-source sweeps' level
// spans through the same pipeline.
func TestMultiBFSTrace(t *testing.T) {
	cl, dg, src := traceCluster(t, 2, 2)
	tr := NewTrace()
	res, err := cl.MultiBFS(dg, []Vertex{src, src + 1, src + 2}, WithWire(WireHybrid), WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	_, d, err := traceverify.Export(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := traceverify.BFS(d, &res.Result); err != nil {
		t.Fatal(err)
	}
}

// TestEveryEngineTracesItsScans: every top-down engine — BFS, MultiBFS
// and Δ-stepping on a 2D and on a 1 x P (1D) mesh — wraps
// its local scan in an engine/scan span whose edges (and, where a map is
// probed, probes) args add up to the Result's totals, and recording them
// leaves the simulated clock where the untraced run put it.
func TestEveryEngineTracesItsScans(t *testing.T) {
	g, err := GenerateWeighted(3000, 8, 99, WithMaxWeight(255))
	if err != nil {
		t.Fatal(err)
	}
	src := g.LargestComponentVertex()
	cl, err := NewCluster(ClusterConfig{R: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	// scanTotals sums the args of the recorded engine/scan spans.
	scanTotals := func(tr *Trace) (spans int, edges, probes int64) {
		for _, rank := range tr.Ranks() {
			for _, ev := range rank.Events() {
				if ev.Cat != "engine" || ev.Name != "scan" {
					continue
				}
				spans++
				for _, a := range ev.Args {
					switch a.Key {
					case "edges":
						edges += a.Val
					case "probes":
						probes += a.Val
					}
				}
			}
		}
		return spans, edges, probes
	}
	for _, part := range []Partition{Part2D, Part1DCol} {
		dg, err := cl.Distribute(g, WithPartition(part))
		if err != nil {
			t.Fatal(err)
		}
		check := func(name string, tr *Trace, wantEdges int64, wantProbes uint64, bareSim, tracedSim float64) {
			t.Helper()
			spans, edges, probes := scanTotals(tr)
			if spans == 0 {
				t.Fatalf("%s/%s: no engine/scan span recorded", part, name)
			}
			if edges != wantEdges || uint64(probes) != wantProbes {
				t.Fatalf("%s/%s: scan spans carry %d edges / %d probes, the Result %d / %d",
					part, name, edges, probes, wantEdges, wantProbes)
			}
			if bareSim != tracedSim {
				t.Fatalf("%s/%s: tracing moved the clock: %g vs %g", part, name, bareSim, tracedSim)
			}
		}

		bare, err := cl.BFS(dg, src)
		if err != nil {
			t.Fatal(err)
		}
		tr := NewTrace()
		res, err := cl.BFS(dg, src, WithTrace(tr))
		if err != nil {
			t.Fatal(err)
		}
		check("bfs", tr, res.TotalEdgesScanned, res.HashProbes, bare.SimTime, res.SimTime)

		srcs := []Vertex{src, src + 1, src + 2}
		bareM, err := cl.MultiBFS(dg, srcs)
		if err != nil {
			t.Fatal(err)
		}
		tr = NewTrace()
		resM, err := cl.MultiBFS(dg, srcs, WithTrace(tr))
		if err != nil {
			t.Fatal(err)
		}
		check("multibfs", tr, resM.TotalEdgesScanned, resM.HashProbes, bareM.SimTime, resM.SimTime)

		bareS, err := cl.SSSP(dg, src, WithDelta(64))
		if err != nil {
			t.Fatal(err)
		}
		tr = NewTrace()
		resS, err := cl.SSSP(dg, src, WithDelta(64), WithTrace(tr))
		if err != nil {
			t.Fatal(err)
		}
		// Δ-stepping Results carry no probe total; take the spans' own.
		_, _, ssspProbes := scanTotals(tr)
		if (part == Part2D) != (ssspProbes > 0) {
			t.Fatalf("%s/sssp: scan spans carry %d probes", part, ssspProbes)
		}
		check("sssp", tr, resS.TotalEdgesScanned, uint64(ssspProbes), bareS.SimTime, resS.SimTime)
	}
}

// TestMetricsPublish asserts a run publishes its statistics into the
// registry and the snapshot is readable.
func TestMetricsPublish(t *testing.T) {
	cl, dg, src := traceCluster(t, 2, 2)
	m := NewMetrics()
	res, err := cl.BFS(dg, src, WithWire(WireHybrid), WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("bfs_expand_words_total").Value(); got != res.TotalExpandWords {
		t.Fatalf("bfs_expand_words_total = %d, want %d", got, res.TotalExpandWords)
	}
	if got := m.Counter("bfs_levels_total").Value(); got != int64(len(res.PerLevel)) {
		t.Fatalf("bfs_levels_total = %d, want %d", got, len(res.PerLevel))
	}
	if got := m.Gauge("bfs_sim_time_s").Value(); got != res.SimTime {
		t.Fatalf("bfs_sim_time_s = %g, want %g", got, res.SimTime)
	}
	text := m.Text()
	for _, want := range []string{"bfs_runs_total 1", "bfs_sim_time_s ", "bfs_level_exec_seconds_count"} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics text snapshot missing %q:\n%s", want, text)
		}
	}
	// A second run accumulates counters.
	if _, err := cl.SSSP(dg, src, WithDelta(128), WithMetrics(m)); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("sssp_runs_total").Value(); got != 1 {
		t.Fatalf("sssp_runs_total = %d, want 1", got)
	}
	if !bytes.Contains(m.JSON(), []byte(`"sssp_relaxations_total"`)) {
		t.Fatal("metrics JSON snapshot missing sssp_relaxations_total")
	}
}
