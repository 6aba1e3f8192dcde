// Benchmarks of the distributed engine itself: each reports headline
// quantities as custom metrics beside its wall-clock throughput, so
// `go test -bench=.` yields a compact reproduction record:
//
//	simexec-s   simulated execution time of the run
//	simcomm-s   simulated communication time of the same run
//	words       total message words moved
//
// The paper's tables and figures (§4) are regenerated by
// BenchmarkExhibit in internal/harness (the full-scale runs are driven
// by cmd/bfsbench). Shapes — who wins, slopes, crossovers — are
// asserted by the unit tests; benchmarks record magnitudes.
package bgl

import (
	"strconv"
	"testing"

	"repro/internal/bfs"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sssp"
)

// --- Core-engine micro-benchmarks -----------------------------------
// These measure the real (wall-clock) throughput of the distributed
// engine itself on the host, complementing the simulated-time exhibits
// of internal/harness.

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

// BenchmarkTraversal1D measures Algorithm 1: the engine on a 1 x 16
// mesh.
func BenchmarkTraversal1D(b *testing.B) {
	fx := buildBenchFixture(b, 100000, 10, 1, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bfs.Run2D(fx.world, fx.stores, bfs.DefaultOptions(fx.src)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiBFS1D measures one 64-lane batched sweep at the perf
// lab's multibfs1d-64 shape — n = 16,000, k = 10, a 4x4 cluster under
// Part1DCol, hybrid wire — with its allocations, so `make bench` prints
// the bytes and allocations per sweep that workload's claim is about:
//
//	go test -run '^$' -bench MultiBFS1D -benchmem .
func BenchmarkMultiBFS1D(b *testing.B) {
	const n = 16000
	g, err := Generate(n, 10, 9)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{R: 4, C: 4})
	if err != nil {
		b.Fatal(err)
	}
	dg, err := cl.Distribute(g, WithPartition(Part1DCol))
	if err != nil {
		b.Fatal(err)
	}
	lanes := make([]Vertex, MaxLanes)
	for i := range lanes {
		lanes[i] = Vertex((int(g.LargestComponentVertex()) + 241*i) % n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var last *MultiResult
	for i := 0; i < b.N; i++ {
		if last, err = cl.MultiBFS(dg, lanes, WithWire(WireHybrid)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(last.TotalExpandWords+last.TotalFoldWords), "words")
	b.ReportMetric(last.SimTime, "simexec-s")
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
