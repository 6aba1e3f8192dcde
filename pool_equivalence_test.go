package bgl

// Worker-pool determinism suite: the per-rank pool (internal/pool) may
// only change host wall-clock, never a simulated number. Every engine
// on every mesh shape, wire codec, and exchange schedule must produce
// a Result — simulated clocks, words, duplicate counts, hash probes,
// and container histograms included — byte-identical across pool
// sizes, and the modeled core count must shrink the simulated clock
// without touching anything else.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/traceverify"
)

// zeroWall* return copies with only the host wall-clock zeroed — the
// single field real parallelism is allowed to change.
func zeroWallBFS(res *Result) *Result { c := *res; c.Wall = 0; return &c }
func zeroWallMulti(res *MultiResult) *MultiResult {
	c := *res
	c.Wall = 0
	return &c
}
func zeroWallSSSP(res *SSSPResult) *SSSPResult { c := *res; c.Wall = 0; return &c }

// TestWorkerPoolDeterminism is the flagship pool gate: for each mesh
// shape of the acceptance matrix, each wire codec, and both exchange
// schedules, BFS (direction-optimizing, so both scan families run),
// multi-source BFS, and Δ-stepping at pool sizes 1, 2, and 8 must be
// indistinguishable except for wall time.
func TestWorkerPoolDeterminism(t *testing.T) {
	fx := newChaosFixture(t)
	srcs := []Vertex{fx.src, fx.tgt, 3, 11}

	meshes := []struct {
		r, c int
		part Partition
	}{
		{1, 1, Part2D},
		{2, 2, Part2D},
		{4, 4, Part2D},
		{1, 16, Part1DCol}, // Algorithm 1: the engines on a 1 x P mesh
	}
	wires := []struct {
		name string
		mode WireMode
	}{
		{"sparse", WireSparse}, {"dense", WireDense}, {"auto", WireAuto}, {"hybrid", WireHybrid},
	}

	for _, m := range meshes {
		cl, err := NewCluster(ClusterConfig{R: m.r, C: m.c})
		if err != nil {
			t.Fatal(err)
		}
		dgU, err := cl.Distribute(fx.gU, WithPartition(m.part))
		if err != nil {
			t.Fatal(err)
		}
		dgW, err := cl.Distribute(fx.gW, WithPartition(m.part))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range wires {
			for _, async := range []bool{true, false} {
				base := []Option{WithWire(w.mode), WithAsync(async)}
				name := fmt.Sprintf("%dx%d/%s/async=%v", m.r, m.c, w.name, async)
				t.Run(name, func(t *testing.T) {
					opts := func(workers int) []Option {
						return append([]Option{WithWorkers(workers)}, base...)
					}
					refB, err := cl.BFS(dgU, fx.src, append(opts(1), WithDirection(DirectionOptimizing))...)
					if err != nil {
						t.Fatal(err)
					}
					refM, err := cl.MultiBFS(dgU, srcs, opts(1)...)
					if err != nil {
						t.Fatal(err)
					}
					refS, err := cl.SSSP(dgW, fx.src, opts(1)...)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{2, 8} {
						resB, err := cl.BFS(dgU, fx.src, append(opts(workers), WithDirection(DirectionOptimizing))...)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(zeroWallBFS(refB), zeroWallBFS(resB)) {
							t.Fatalf("BFS result differs between 1 and %d workers", workers)
						}
						resM, err := cl.MultiBFS(dgU, srcs, opts(workers)...)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(zeroWallMulti(refM), zeroWallMulti(resM)) {
							t.Fatalf("MultiBFS result differs between 1 and %d workers", workers)
						}
						resS, err := cl.SSSP(dgW, fx.src, opts(workers)...)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(zeroWallSSSP(refS), zeroWallSSSP(resS)) {
							t.Fatalf("SSSP result differs between 1 and %d workers", workers)
						}
					}
				})
			}
		}
	}
}

// TestParallelOracleEquivalence drives the pooled engines (8 workers,
// hybrid codec) against the single-machine oracles: per-direction BFS levels,
// per-lane multi-source levels, and Δ-stepping distances.
func TestParallelOracleEquivalence(t *testing.T) {
	fx := newChaosFixture(t)
	wantLevels := fx.gU.SerialBFS(fx.src)
	wantDist := fx.gW.SerialDijkstra(fx.src)
	srcs := []Vertex{fx.src, fx.tgt, 3, 11}

	meshes := []struct {
		r, c int
		part Partition
	}{
		{2, 2, Part2D},
		{4, 4, Part2D},
		{1, 16, Part1DCol},
	}
	for _, m := range meshes {
		cl, err := NewCluster(ClusterConfig{R: m.r, C: m.c})
		if err != nil {
			t.Fatal(err)
		}
		dgU, err := cl.Distribute(fx.gU, WithPartition(m.part))
		if err != nil {
			t.Fatal(err)
		}
		dgW, err := cl.Distribute(fx.gW, WithPartition(m.part))
		if err != nil {
			t.Fatal(err)
		}
		opts := []Option{WithWorkers(8), WithWire(WireHybrid)}
		for _, d := range []struct {
			name string
			dir  Direction
		}{{"topdown", TopDown}, {"bottomup", BottomUp}, {"dirop", DirectionOptimizing}} {
			t.Run(fmt.Sprintf("%dx%d/bfs-%s", m.r, m.c, d.name), func(t *testing.T) {
				res, err := cl.BFS(dgU, fx.src, append([]Option{WithDirection(d.dir)}, opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				for v, want := range wantLevels {
					if res.Levels[v] != want {
						t.Fatalf("level[%d] = %d, oracle %d", v, res.Levels[v], want)
					}
				}
			})
		}
		t.Run(fmt.Sprintf("%dx%d/multi", m.r, m.c), func(t *testing.T) {
			res, err := cl.MultiBFS(dgU, srcs, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for lane, src := range srcs {
				want := fx.gU.SerialBFS(src)
				for v := range want {
					if res.LaneLevels[lane][v] != want[v] {
						t.Fatalf("lane %d level[%d] = %d, oracle %d", lane, v, res.LaneLevels[lane][v], want[v])
					}
				}
			}
		})
		t.Run(fmt.Sprintf("%dx%d/sssp", m.r, m.c), func(t *testing.T) {
			res, err := cl.SSSP(dgW, fx.src, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for v, want := range wantDist {
				if res.Dist[v] != want {
					t.Fatalf("dist[%d] = %d, oracle %d", v, res.Dist[v], want)
				}
			}
		})
	}
}

// TestCoresModel pins the simulated side of the tentpole: cores=1 is
// bit-identical to the default single-core run, cores=4 shrinks the
// simulated clock while leaving every non-temporal field untouched,
// and the divided charges still tile the clock ledger exactly (the
// trace cross-check re-derives clock == comp + comm - overlap from
// the spans alone).
func TestCoresModel(t *testing.T) {
	fx := newChaosFixture(t)
	cl, err := NewCluster(ClusterConfig{R: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	dgU, err := cl.Distribute(fx.gU)
	if err != nil {
		t.Fatal(err)
	}
	dgW, err := cl.Distribute(fx.gW)
	if err != nil {
		t.Fatal(err)
	}

	base, err := cl.BFS(dgU, fx.src, WithWire(WireHybrid))
	if err != nil {
		t.Fatal(err)
	}
	one, err := cl.BFS(dgU, fx.src, WithWire(WireHybrid), WithCores(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zeroWallBFS(base), zeroWallBFS(one)) {
		t.Fatal("cores=1 BFS is not bit-identical to the default single-core run")
	}

	four, err := cl.BFS(dgU, fx.src, WithWire(WireHybrid), WithCores(4))
	if err != nil {
		t.Fatal(err)
	}
	if four.SimTime >= base.SimTime {
		t.Fatalf("cores=4 SimTime %.6g not below single-core %.6g", four.SimTime, base.SimTime)
	}
	if !reflect.DeepEqual(four.Levels, base.Levels) {
		t.Fatal("cores=4 changed the BFS levels")
	}
	if four.TotalExpandWords != base.TotalExpandWords || four.TotalFoldWords != base.TotalFoldWords ||
		four.TotalDups != base.TotalDups || four.HashProbes != base.HashProbes ||
		four.Containers != base.Containers {
		t.Fatal("cores=4 changed a non-temporal statistic")
	}

	baseS, err := cl.SSSP(dgW, fx.src)
	if err != nil {
		t.Fatal(err)
	}
	fourS, err := cl.SSSP(dgW, fx.src, WithCores(4))
	if err != nil {
		t.Fatal(err)
	}
	if fourS.SimTime >= baseS.SimTime {
		t.Fatalf("cores=4 SSSP SimTime %.6g not below single-core %.6g", fourS.SimTime, baseS.SimTime)
	}
	if !reflect.DeepEqual(fourS.Dist, baseS.Dist) {
		t.Fatal("cores=4 changed the SSSP distances")
	}

	// The divided charges must still tile the ledger: record and
	// cross-check a traced cores=4 run of each family.
	tr := NewTrace()
	res, err := cl.BFS(dgU, fx.src, WithWire(WireHybrid), WithCores(4), WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if _, d, err := traceverify.Export(tr); err != nil {
		t.Fatal(err)
	} else if err := traceverify.BFS(d, res); err != nil {
		t.Fatalf("cores=4 BFS trace ledger: %v", err)
	}
	trS := NewTrace()
	resS, err := cl.SSSP(dgW, fx.src, WithCores(4), WithTrace(trS))
	if err != nil {
		t.Fatal(err)
	}
	if _, d, err := traceverify.Export(trS); err != nil {
		t.Fatal(err)
	} else if err := traceverify.SSSP(d, resS); err != nil {
		t.Fatalf("cores=4 SSSP trace ledger: %v", err)
	}
}
