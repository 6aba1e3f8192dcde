// Benchmarks regenerating every table and figure of the paper's
// evaluation section (§4). Each benchmark runs the corresponding
// harness experiment at a reduced scale (the full-scale runs are
// driven by cmd/bfsbench) and reports headline quantities as custom
// metrics so `go test -bench=.` yields a compact reproduction record:
//
//	simexec-s   simulated execution time of the exhibit's largest run
//	simcomm-s   simulated communication time of the same run
//	words       total message words moved
//	redund-pct  union-fold redundancy ratio
//
// Shapes — who wins, slopes, crossovers — are asserted by the unit
// tests; benchmarks record magnitudes.
package bgl

import (
	"strconv"
	"testing"

	"repro/internal/bfs"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/partition"
	"repro/internal/sssp"
)

// benchConfig keeps every exhibit under a few seconds per iteration on
// one core.
func benchConfig() harness.Config {
	return harness.Config{Scale: 0.25, MaxP: 16, Seed: 1, Searches: 1}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := harness.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4aWeakScaling regenerates Figure 4a (weak scaling mean
// search time + communication time).
func BenchmarkFig4aWeakScaling(b *testing.B) { runExperiment(b, "fig4a") }

// BenchmarkFig4bMessageVolume regenerates Figure 4b (message volume vs
// search path length).
func BenchmarkFig4bMessageVolume(b *testing.B) { runExperiment(b, "fig4b") }

// BenchmarkFig4cBidirectional regenerates Figure 4c (bi-directional vs
// uni-directional weak scaling).
func BenchmarkFig4cBidirectional(b *testing.B) { runExperiment(b, "fig4c") }

// BenchmarkFig5StrongScaling regenerates Figure 5 (strong scaling
// speedup).
func BenchmarkFig5StrongScaling(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkTable1Topologies regenerates Table 1 (processor-topology
// comparison).
func BenchmarkTable1Topologies(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig6aVolumeByLevel regenerates Figure 6a (per-level volume,
// 1D vs 2D, k=10 and k=50).
func BenchmarkFig6aVolumeByLevel(b *testing.B) { runExperiment(b, "fig6a") }

// BenchmarkFig6bCrossover regenerates Figure 6b (1D/2D crossover
// degree).
func BenchmarkFig6bCrossover(b *testing.B) { runExperiment(b, "fig6b") }

// BenchmarkFig7Redundancy regenerates Figure 7 (union-fold redundancy
// ratio).
func BenchmarkFig7Redundancy(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkAblationMapping regenerates the §3.2.1 mapping ablation.
func BenchmarkAblationMapping(b *testing.B) { runExperiment(b, "ablation-mapping") }

// BenchmarkAblationCollectives regenerates the §3.2.2 collective
// ablation.
func BenchmarkAblationCollectives(b *testing.B) { runExperiment(b, "ablation-collective") }

// BenchmarkAblationSentCache regenerates the §2.4.3 sent-cache
// ablation.
func BenchmarkAblationSentCache(b *testing.B) { runExperiment(b, "ablation-sentcache") }

// BenchmarkAblationDirection regenerates the top-down vs
// direction-optimizing level-by-level ablation.
func BenchmarkAblationDirection(b *testing.B) { runExperiment(b, "ablation-direction") }

// BenchmarkAblationWire regenerates the wire-encoding ablation
// (sparse/dense/auto/hybrid across frontier occupancies).
func BenchmarkAblationWire(b *testing.B) { runExperiment(b, "ablation-wire") }

// BenchmarkMemScale regenerates the §2.4.1 memory-scalability exhibit.
func BenchmarkMemScale(b *testing.B) { runExperiment(b, "memscale") }

// BenchmarkAblationOverlap regenerates the synchronous-vs-overlapped
// exchange-schedule ablation (async collectives hidden under the scan).
func BenchmarkAblationOverlap(b *testing.B) { runExperiment(b, "ablation-overlap") }

// BenchmarkAblationDelta regenerates the Δ-stepping bucket-width
// sweep on the weighted Poisson workload.
func BenchmarkAblationDelta(b *testing.B) { runExperiment(b, "ablation-delta") }

// --- Core-engine micro-benchmarks -----------------------------------
// These measure the real (wall-clock) throughput of the distributed
// engine itself on this host, complementing the simulated-time
// exhibits above.

type benchFixture struct {
	g      *graph.CSR
	stores []*partition.Store2D
	world  *comm.World
	src    graph.Vertex
}

func buildBenchFixture(b *testing.B, n int, k float64, r, c int) *benchFixture {
	b.Helper()
	params := graph.Params{N: n, K: k, Seed: 9}
	g, err := graph.Generate(params)
	if err != nil {
		b.Fatal(err)
	}
	layout, err := partition.NewLayout2D(n, r, c)
	if err != nil {
		b.Fatal(err)
	}
	stores, err := partition.Build2D(layout, func(fn func(u, v graph.Vertex)) error {
		return params.VisitEdges(fn)
	})
	if err != nil {
		b.Fatal(err)
	}
	w, err := comm.NewWorld(comm.Config{P: r * c})
	if err != nil {
		b.Fatal(err)
	}
	return &benchFixture{g: g, stores: stores, world: w, src: graph.LargestComponentVertex(g)}
}

// BenchmarkTraversal2D measures full-traversal throughput (edges/sec
// real time) of the 2D engine on a 4x4 mesh.
func BenchmarkTraversal2D(b *testing.B) {
	fx := buildBenchFixture(b, 100000, 10, 4, 4)
	b.ResetTimer()
	var last *bfs.Result
	for i := 0; i < b.N; i++ {
		res, err := bfs.Run2D(fx.world, fx.stores, bfs.DefaultOptions(fx.src))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	if last != nil {
		b.ReportMetric(float64(fx.g.NumEdges())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		b.ReportMetric(last.SimTime, "simexec-s")
		b.ReportMetric(last.SimComm, "simcomm-s")
	}
}

// benchDirection measures a full traversal of the paper's k=10
// workload at n=100k on a 4x4 mesh under one direction policy,
// reporting real throughput plus the edges-inspected and simulated-time
// deltas that direction-optimizing traversal shrinks.
func benchDirection(b *testing.B, dir bfs.Direction) {
	fx := buildBenchFixture(b, 100000, 10, 4, 4)
	opts := bfs.DefaultOptions(fx.src)
	opts.Direction = dir
	b.ResetTimer()
	var last *bfs.Result
	for i := 0; i < b.N; i++ {
		res, err := bfs.Run2D(fx.world, fx.stores, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	if last != nil {
		b.ReportMetric(float64(fx.g.NumEdges())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		b.ReportMetric(float64(last.TotalEdgesScanned), "edges-scanned")
		b.ReportMetric(float64(last.TotalExpandWords+last.TotalFoldWords), "words")
		b.ReportMetric(last.SimTime, "simexec-s")
		b.ReportMetric(last.SimComm, "simcomm-s")
	}
}

// BenchmarkDirectionTopDown is the always-top-down baseline (the
// paper's algorithm) for the direction comparison.
func BenchmarkDirectionTopDown(b *testing.B) { benchDirection(b, bfs.TopDown) }

// BenchmarkDirectionOptimizing runs the same traversal with per-level
// direction switching.
func BenchmarkDirectionOptimizing(b *testing.B) { benchDirection(b, bfs.DirectionOptimizing) }

// benchWire measures the k=10 full traversal under one frontier wire
// encoding, reporting the moved-word totals the codec shrinks.
func benchWire(b *testing.B, wire frontier.WireMode) {
	fx := buildBenchFixture(b, 100000, 10, 4, 4)
	opts := bfs.DefaultOptions(fx.src)
	opts.Wire = wire
	b.ResetTimer()
	var last *bfs.Result
	for i := 0; i < b.N; i++ {
		res, err := bfs.Run2D(fx.world, fx.stores, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	if last != nil {
		b.ReportMetric(float64(fx.g.NumEdges())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		b.ReportMetric(float64(last.TotalExpandWords+last.TotalFoldWords), "words")
		b.ReportMetric(last.SimTime, "simexec-s")
		b.ReportMetric(last.SimComm, "simcomm-s")
	}
}

// BenchmarkWireSparse is the legacy vertex-list wire baseline.
func BenchmarkWireSparse(b *testing.B) { benchWire(b, frontier.WireSparse) }

// BenchmarkWireAuto picks min(list, bitmap) per payload (PR 1).
func BenchmarkWireAuto(b *testing.B) { benchWire(b, frontier.WireAuto) }

// BenchmarkWireHybrid runs the chunked container codec.
func BenchmarkWireHybrid(b *testing.B) { benchWire(b, frontier.WireHybrid) }

// BenchmarkDeltaStepping measures distributed Δ-stepping shortest
// paths on the weighted n=100k k=10 workload at 4x4 (uniform [1,256]
// weights, auto Δ), reporting the relaxation-work and volume metrics
// the Δ sweep trades against each other.
func BenchmarkDeltaStepping(b *testing.B) {
	params := graph.Params{N: 100000, K: 10, Seed: 9}
	spec := graph.WeightSpec{Dist: graph.WeightUniform, MaxWeight: 256, Seed: 10}
	g, err := graph.GenerateWeighted(params, spec)
	if err != nil {
		b.Fatal(err)
	}
	layout, err := partition.NewLayout2D(params.N, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	stores, err := partition.Build2DWeighted(layout, g.VisitWeightedEdges)
	if err != nil {
		b.Fatal(err)
	}
	w, err := comm.NewWorld(comm.Config{P: 16})
	if err != nil {
		b.Fatal(err)
	}
	src := graph.LargestComponentVertex(g)
	b.ResetTimer()
	var last *sssp.Result
	for i := 0; i < b.N; i++ {
		res, err := sssp.Run2D(w, stores, sssp.DefaultOptions(src))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	if last != nil {
		b.ReportMetric(float64(g.NumEdges())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		b.ReportMetric(float64(last.TotalRelaxations), "relaxations")
		b.ReportMetric(float64(last.TotalReSettles), "re-settles")
		b.ReportMetric(float64(last.TotalWords()), "words")
		b.ReportMetric(last.SimTime, "simexec-s")
		b.ReportMetric(last.SimComm, "simcomm-s")
	}
}

// BenchmarkTraversal1D measures the dedicated Algorithm 1 engine.
func BenchmarkTraversal1D(b *testing.B) {
	params := graph.Params{N: 100000, K: 10, Seed: 9}
	layout, err := partition.NewLayout1D(params.N, 16)
	if err != nil {
		b.Fatal(err)
	}
	stores, err := partition.Build1D(layout, func(fn func(u, v graph.Vertex)) error {
		return params.VisitEdges(fn)
	})
	if err != nil {
		b.Fatal(err)
	}
	w, err := comm.NewWorld(comm.Config{P: 16})
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.Generate(params)
	if err != nil {
		b.Fatal(err)
	}
	src := graph.LargestComponentVertex(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bfs.Run1D(w, stores, bfs.DefaultOptions(src)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBidirectionalSearch measures the §2.3 bi-directional search
// on far-apart endpoints.
func BenchmarkBidirectionalSearch(b *testing.B) {
	fx := buildBenchFixture(b, 100000, 10, 4, 4)
	levels := graph.BFS(fx.g, fx.src)
	far := fx.src
	for v, l := range levels {
		if l != graph.Unreached && l > levels[far] {
			far = graph.Vertex(v)
		}
	}
	opts := bfs.DefaultOptions(fx.src)
	opts.Target, opts.HasTarget = far, true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bfs.RunBidirectional2D(fx.world, fx.stores, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate measures the skip-sampling G(n,p) generator.
func BenchmarkGenerate(b *testing.B) {
	for _, k := range []float64{10, 100} {
		b.Run("k="+strconv.Itoa(int(k)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := graph.Generate(graph.Params{N: 100000, K: k, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuild2D measures distributed-store construction.
func BenchmarkBuild2D(b *testing.B) {
	params := graph.Params{N: 100000, K: 10, Seed: 3}
	layout, err := partition.NewLayout2D(params.N, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Build2D(layout, func(fn func(u, v graph.Vertex)) error {
			return params.VisitEdges(fn)
		}); err != nil {
			b.Fatal(err)
		}
	}
}
