package bgl

// Chaos differential suite: every engine on every mesh shape and wire
// codec runs twice — once on a clean wire, once under the canned fault
// plan (corruption, drops, duplicates, delays, a straggler, and a
// transient outage) — and the two Results must match field-for-field
// once the purely temporal quantities (simulated times, wall time,
// fault counters) are scrubbed. The self-healing transport's whole
// contract is that recovery is invisible outside the clock.

import (
	"fmt"
	"reflect"
	"testing"
)

// scrubLevel zeroes a LevelStats' temporal fields in place.
func scrubLevels(ls []LevelStats) []LevelStats {
	out := append([]LevelStats(nil), ls...)
	for i := range out {
		out[i].ExecS, out[i].CommS, out[i].OverlapS = 0, 0, 0
	}
	return out
}

// scrubBFS returns a copy of res with everything a fault plan is
// allowed to change — simulated times, wall time, fault counters —
// zeroed. All remaining fields must be identical to the fault-free run.
func scrubBFS(res *Result) *Result {
	c := *res
	c.SimTime, c.SimComm, c.SimOverlap, c.Wall = 0, 0, 0, 0
	c.Faults = FaultStats{}
	c.PerLevel = scrubLevels(res.PerLevel)
	c.PerRank = make([][]LevelStats, len(res.PerRank))
	for r := range res.PerRank {
		c.PerRank[r] = scrubLevels(res.PerRank[r])
	}
	return &c
}

func scrubMulti(res *MultiResult) *MultiResult {
	c := *res
	c.Result = *scrubBFS(&res.Result)
	return &c
}

func scrubEpochs(es []EpochStats) []EpochStats {
	out := append([]EpochStats(nil), es...)
	for i := range out {
		out[i].ExecS, out[i].CommS, out[i].OverlapS = 0, 0, 0
	}
	return out
}

func scrubSSSP(res *SSSPResult) *SSSPResult {
	c := *res
	c.SimTime, c.SimComm, c.SimOverlap, c.Wall = 0, 0, 0, 0
	c.Faults = FaultStats{}
	c.PerEpoch = scrubEpochs(res.PerEpoch)
	c.PerRank = make([][]EpochStats, len(res.PerRank))
	for r := range res.PerRank {
		c.PerRank[r] = scrubEpochs(res.PerRank[r])
	}
	return &c
}

// chaosFixture builds the suite's graphs once: the unweighted BFS
// workload and its weighted twin for Δ-stepping.
type chaosFixture struct {
	gU, gW   *Graph
	src, tgt Vertex
}

func newChaosFixture(t *testing.T) *chaosFixture {
	t.Helper()
	gU, err := Generate(1500, 8, 33)
	if err != nil {
		t.Fatal(err)
	}
	gW, err := GenerateWeighted(1500, 8, 33, WithMaxWeight(40))
	if err != nil {
		t.Fatal(err)
	}
	src := gU.LargestComponentVertex()
	tgt := Vertex(int(src+737) % gU.N())
	return &chaosFixture{gU: gU, gW: gW, src: src, tgt: tgt}
}

// TestChaosDifferential is the flagship robustness gate: for each mesh
// shape of the acceptance matrix and each wire codec, every engine's
// faulted Result must equal its fault-free Result after scrubbing.
func TestChaosDifferential(t *testing.T) {
	fx := newChaosFixture(t)
	plan := CannedFaultPlan(7)

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

	var totalInjected uint64
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
			base := []Option{WithWire(w.mode)}
			// Each engine returns its scrubbed result and the faulted
			// run's injection count; the subtest diffs clean vs faulted.
			engines := []struct {
				name string
				run  func(extra ...Option) (any, uint64, error)
			}{
				{"bfs-topdown", func(extra ...Option) (any, uint64, error) {
					res, err := cl.BFS(dgU, fx.src, append(append([]Option{WithDirection(TopDown)}, base...), extra...)...)
					if err != nil {
						return nil, 0, err
					}
					return scrubBFS(res), res.Faults.Injected(), nil
				}},
				{"bfs-bottomup", func(extra ...Option) (any, uint64, error) {
					res, err := cl.BFS(dgU, fx.src, append(append([]Option{WithDirection(BottomUp)}, base...), extra...)...)
					if err != nil {
						return nil, 0, err
					}
					return scrubBFS(res), res.Faults.Injected(), nil
				}},
				{"bfs-dirop", func(extra ...Option) (any, uint64, error) {
					res, err := cl.BFS(dgU, fx.src, append(append([]Option{WithDirection(DirectionOptimizing)}, base...), extra...)...)
					if err != nil {
						return nil, 0, err
					}
					return scrubBFS(res), res.Faults.Injected(), nil
				}},
				{"bisearch", func(extra ...Option) (any, uint64, error) {
					res, err := cl.BiSearch(dgU, fx.src, fx.tgt, append(base, extra...)...)
					if err != nil {
						return nil, 0, err
					}
					return scrubBFS(res), res.Faults.Injected(), nil
				}},
				{"multi-bfs", func(extra ...Option) (any, uint64, error) {
					srcs := []Vertex{fx.src, fx.tgt, Vertex(int(fx.src+99) % fx.gU.N())}
					res, err := cl.MultiBFS(dgU, srcs, append(base, extra...)...)
					if err != nil {
						return nil, 0, err
					}
					return scrubMulti(res), res.Faults.Injected(), nil
				}},
				{"sssp-sync", func(extra ...Option) (any, uint64, error) {
					res, err := cl.SSSP(dgW, fx.src, append(append([]Option{WithAsync(false)}, base...), extra...)...)
					if err != nil {
						return nil, 0, err
					}
					return scrubSSSP(res), res.Faults.Injected(), nil
				}},
				{"sssp-async", func(extra ...Option) (any, uint64, error) {
					res, err := cl.SSSP(dgW, fx.src, append(base, extra...)...)
					if err != nil {
						return nil, 0, err
					}
					return scrubSSSP(res), res.Faults.Injected(), nil
				}},
			}
			for _, eng := range engines {
				name := eng.name
				run := eng.run
				t.Run(fmt.Sprintf("%dx%d-%s_%s_%s", m.r, m.c, m.part, w.name, name), func(t *testing.T) {
					clean, injClean, err := run()
					if err != nil {
						t.Fatal(err)
					}
					if injClean != 0 {
						t.Fatalf("clean run reports %d injections", injClean)
					}
					faulted, inj, err := run(WithFault(plan))
					if err != nil {
						t.Fatal(err)
					}
					totalInjected += inj
					if !reflect.DeepEqual(clean, faulted) {
						t.Fatalf("faulted result differs from fault-free after scrubbing (injections: %d)", inj)
					}
					// Determinism: the same plan must fault identically.
					again, inj2, err := run(WithFault(plan))
					if err != nil {
						t.Fatal(err)
					}
					if inj2 != inj || !reflect.DeepEqual(faulted, again) {
						t.Fatalf("faulted run is not deterministic (injections %d vs %d)", inj, inj2)
					}
				})
			}
		}
	}
	if totalInjected == 0 {
		t.Fatal("the canned plan injected nothing across the whole matrix; the suite tested no recovery")
	}
}

// TestChaosKillRestore halts the flagship workloads mid-run under
// active faults, round-trips the snapshot through the on-disk format,
// and requires the resumed Result to be byte-identical (wall time
// aside) to the uninterrupted faulted run.
func TestChaosKillRestore(t *testing.T) {
	fx := newChaosFixture(t)
	plan := CannedFaultPlan(7)
	path := t.TempDir() + "/chaos.ckpt"

	newCluster := func() *Cluster {
		cl, err := NewCluster(ClusterConfig{R: 2, C: 2})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}

	t.Run("bfs", func(t *testing.T) {
		opts := []Option{WithWire(WireHybrid), WithDirection(DirectionOptimizing), WithFault(plan)}
		cl := newCluster()
		dg, err := cl.Distribute(fx.gU)
		if err != nil {
			t.Fatal(err)
		}
		full, err := cl.BFS(dg, fx.src, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if full.MaxLevel() < 3 {
			t.Fatalf("fixture too shallow to kill mid-run (max level %d)", full.MaxLevel())
		}

		ckpt := NewCheckpoint(2)
		cl2 := newCluster()
		dg2, err := cl2.Distribute(fx.gU)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl2.BFS(dg2, fx.src, append(opts, WithCheckpoint(ckpt))...); err != nil {
			t.Fatal(err)
		}
		if err := WriteCheckpoint(path, ckpt.Snapshot()); err != nil {
			t.Fatal(err)
		}
		snap, err := ReadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}

		cl3 := newCluster()
		dg3, err := cl3.Distribute(fx.gU)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := cl3.BFS(dg3, fx.src, append(opts, WithRestore(snap))...)
		if err != nil {
			t.Fatal(err)
		}
		a, b := *full, *resumed
		a.Wall, b.Wall = 0, 0
		if !reflect.DeepEqual(&a, &b) {
			t.Fatal("restored BFS result is not byte-identical to the uninterrupted run")
		}
	})

	t.Run("sssp", func(t *testing.T) {
		opts := []Option{WithWire(WireHybrid), WithFault(plan)}
		cl := newCluster()
		dg, err := cl.Distribute(fx.gW)
		if err != nil {
			t.Fatal(err)
		}
		full, err := cl.SSSP(dg, fx.src, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if full.Epochs < 3 {
			t.Fatalf("fixture drains too few epochs to kill mid-run (%d)", full.Epochs)
		}

		ckpt := NewCheckpoint(full.Epochs / 2)
		cl2 := newCluster()
		dg2, err := cl2.Distribute(fx.gW)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl2.SSSP(dg2, fx.src, append(opts, WithCheckpoint(ckpt))...); err != nil {
			t.Fatal(err)
		}
		if err := WriteCheckpoint(path, ckpt.Snapshot()); err != nil {
			t.Fatal(err)
		}
		snap, err := ReadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}

		cl3 := newCluster()
		dg3, err := cl3.Distribute(fx.gW)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := cl3.SSSP(dg3, fx.src, append(opts, WithRestore(snap))...)
		if err != nil {
			t.Fatal(err)
		}
		a, b := *full, *resumed
		a.Wall, b.Wall = 0, 0
		if !reflect.DeepEqual(&a, &b) {
			t.Fatal("restored SSSP result is not byte-identical to the uninterrupted run")
		}
	})
}
