package sssp

import (
	"testing"

	"repro/internal/frontier"
	"repro/internal/graph"
)

// runPair2D runs one configuration synchronously and asynchronously on
// fresh 2D fixtures.
func runPair2D(t *testing.T, g *graph.CSR, r, c int, opts Options) (sync, async *Result) {
	t.Helper()
	run := func(asyncOn bool) *Result {
		fx := build2D(t, g, r, c)
		o := opts
		o.Async = asyncOn
		res, err := Run2D(fx.world, fx.stores, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	return run(false), run(true)
}

// checkAsyncAgainstSync asserts the Δ-stepping acceptance contract:
// identical distances and epoch traces (words, relaxations, re-settles,
// edges — epoch by epoch), simulated execution never worse, overlap
// ledger consistent.
func checkAsyncAgainstSync(t *testing.T, label string, sync, async *Result) {
	t.Helper()
	checkDist(t, label, async.Dist, sync.Dist)
	if len(async.PerEpoch) != len(sync.PerEpoch) {
		t.Fatalf("%s: %d epochs async vs %d sync", label, len(async.PerEpoch), len(sync.PerEpoch))
	}
	for e := range sync.PerEpoch {
		se, ae := sync.PerEpoch[e], async.PerEpoch[e]
		if se.Bucket != ae.Bucket || se.Phase != ae.Phase || se.Active != ae.Active ||
			se.ExpandWords != ae.ExpandWords || se.FoldWords != ae.FoldWords ||
			se.Relaxations != ae.Relaxations || se.ReSettles != ae.ReSettles ||
			se.EdgesScanned != ae.EdgesScanned {
			t.Fatalf("%s: epoch %d traces differ: sync %+v async %+v", label, e, se, ae)
		}
		if ae.OverlapS < 0 || ae.OverlapS > ae.CommS+1e-12 {
			t.Fatalf("%s: epoch %d OverlapS %g outside [0, CommS=%g]", label, e, ae.OverlapS, ae.CommS)
		}
	}
	if async.SimTime > sync.SimTime {
		t.Fatalf("%s: async simexec %g > sync %g", label, async.SimTime, sync.SimTime)
	}
	if sync.SimOverlap != 0 {
		t.Fatalf("%s: sync run recorded overlap %g", label, sync.SimOverlap)
	}
	if async.SimOverlap > async.SimComm {
		t.Fatalf("%s: overlap %g exceeds comm %g", label, async.SimOverlap, async.SimComm)
	}
}

// TestAsyncMatchesSyncEveryMeshAndCodec: the overlapped relaxation
// rounds produce identical distances and epoch traces on every mesh x
// wire codec, never slower in simulated time.
func TestAsyncMatchesSyncEveryMeshAndCodec(t *testing.T) {
	g := poisson(t, 2500, 8, 7, graph.WeightUniform, 64)
	wires := []frontier.WireMode{frontier.WireSparse, frontier.WireDense, frontier.WireAuto, frontier.WireHybrid}
	for _, mesh := range testMeshes {
		for _, wire := range wires {
			opts := DefaultOptions(graph.LargestComponentVertex(g))
			opts.Wire = wire
			sync, async := runPair2D(t, g, mesh[0], mesh[1], opts)
			checkAsyncAgainstSync(t, wire.String(), sync, async)
		}
	}
}

// TestAsyncMatchesSync1DEngine: 1 x P meshes, where the engine runs
// Algorithm 1's rounds, under the same contract, across Δ regimes.
func TestAsyncMatchesSync1DEngine(t *testing.T) {
	g := poisson(t, 2500, 8, 9, graph.WeightUniform, 64)
	for _, p := range []int{1, 3, 4, 8} {
		for _, delta := range []uint32{0, 1, 16, DeltaInf} {
			run := func(asyncOn bool) *Result {
				st, w := build1D(t, g, p)
				opts := DefaultOptions(graph.LargestComponentVertex(g))
				opts.Delta = delta
				opts.Wire = frontier.WireHybrid
				opts.Async = asyncOn
				res, err := Run2D(w, st, opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			sync, async := run(false), run(true)
			checkAsyncAgainstSync(t, "1d", sync, async)
		}
	}
}

// TestAsyncDeterministicSimexec: two overlapped runs agree on the
// simulated clock bit for bit.
func TestAsyncDeterministicSimexec(t *testing.T) {
	g := poisson(t, 2500, 8, 13, graph.WeightUniform, 128)
	run := func() *Result {
		fx := build2D(t, g, 2, 2)
		opts := DefaultOptions(graph.LargestComponentVertex(g))
		opts.Wire = frontier.WireHybrid
		res, err := Run2D(fx.world, fx.stores, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.SimTime != b.SimTime || a.SimComm != b.SimComm || a.SimOverlap != b.SimOverlap {
		t.Fatalf("async clock not deterministic: %.17g/%.17g/%.17g vs %.17g/%.17g/%.17g",
			a.SimTime, a.SimComm, a.SimOverlap, b.SimTime, b.SimComm, b.SimOverlap)
	}
	for e := range a.PerEpoch {
		if a.PerEpoch[e].ExecS != b.PerEpoch[e].ExecS || a.PerEpoch[e].OverlapS != b.PerEpoch[e].OverlapS {
			t.Fatalf("epoch %d timings differ across runs", e)
		}
	}
}

// TestAsyncActuallyOverlaps: on the headline shape the overlapped
// schedule hides communication and strictly beats the synchronous
// clock.
func TestAsyncActuallyOverlaps(t *testing.T) {
	g := poisson(t, 6000, 10, 17, graph.WeightUniform, 256)
	opts := DefaultOptions(graph.LargestComponentVertex(g))
	sync, async := runPair2D(t, g, 4, 4, opts)
	if async.SimOverlap <= 0 {
		t.Fatal("default async schedule hid nothing")
	}
	if async.SimTime >= sync.SimTime {
		t.Fatalf("async simexec %g not strictly below sync %g", async.SimTime, sync.SimTime)
	}
}
