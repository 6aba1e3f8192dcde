package bfs

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/trace"
)

// scrubWall zeroes the only Result field that legitimately differs
// between an uninterrupted run and a kill/restore pair (real elapsed
// time of the simulation itself).
func scrubWall(r *Result) *Result {
	cp := *r
	cp.Wall = 0
	return &cp
}

// resultsIdentical asserts two Results are deep-equal after the Wall
// scrub — the checkpoint acceptance criterion.
func resultsIdentical(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(scrubWall(got), scrubWall(want)) {
		t.Fatalf("%s: restored Result differs from uninterrupted run\ngot:  %+v\nwant: %+v", label, got, want)
	}
}

func TestCheckpointRestore2D(t *testing.T) {
	g := testGraph(t, 600, 5, 11)
	fx := build2D(t, g, 2, 2)
	opts := DefaultOptions(fx.src)
	opts.Wire = frontier.WireHybrid

	full, err := Run2D(fx.world, fx.st2, opts)
	if err != nil {
		t.Fatal(err)
	}
	deepest := int(full.MaxLevel())
	if deepest < 2 {
		t.Fatalf("graph too shallow for an interior checkpoint (max level %d)", deepest)
	}

	for _, at := range []int{1, deepest / 2, deepest} {
		opts := opts
		opts.Checkpoint = checkpoint.NewPlan(at)
		partial, err := Run2D(fx.world, fx.st2, opts)
		if err != nil {
			t.Fatalf("at=%d checkpoint run: %v", at, err)
		}
		snap := opts.Checkpoint.Snapshot()
		if snap == nil {
			t.Fatalf("at=%d: no snapshot deposited", at)
		}
		if len(partial.PerLevel) != at {
			t.Fatalf("at=%d: partial run recorded %d levels", at, len(partial.PerLevel))
		}

		// Restore onto a fresh world (fresh ranks, fresh clocks).
		w2, err := comm.NewWorld(comm.Config{P: 4})
		if err != nil {
			t.Fatal(err)
		}
		ropts := opts
		ropts.Checkpoint = nil
		ropts.Restore = snap
		restored, err := Run2D(w2, fx.st2, ropts)
		if err != nil {
			t.Fatalf("at=%d restore run: %v", at, err)
		}
		resultsIdentical(t, restored, full, fmt.Sprintf("at=%d", at))
	}
}

func TestCheckpointRestore1D(t *testing.T) {
	g := testGraph(t, 500, 4, 12)
	p := 4
	st1, w := build1D(t, g, p)
	src := graph.LargestComponentVertex(g)
	opts := DefaultOptions(src)
	opts.SentCache = true

	full, err := Run2D(w, st1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.MaxLevel() < 2 {
		t.Fatalf("graph too shallow (max level %d)", full.MaxLevel())
	}

	opts.Checkpoint = checkpoint.NewPlan(2)
	if _, err := Run2D(w, st1, opts); err != nil {
		t.Fatal(err)
	}
	snap := opts.Checkpoint.Snapshot()

	w2, _ := comm.NewWorld(comm.Config{P: p})
	ropts := opts
	ropts.Checkpoint = nil
	ropts.Restore = snap
	restored, err := Run2D(w2, st1, ropts)
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, restored, full, "1D at=2")
}

// TestCheckpointRestoreDirop exercises the degree-ledger and cached
// degree-exchange paths: the direction-optimizing driver must restore
// the unlabeled-degree accumulator and the 2D engine's AllToAll result.
func TestCheckpointRestoreDirop(t *testing.T) {
	g := testGraph(t, 600, 8, 13)
	fx := build2D(t, g, 2, 2)
	opts := DefaultOptions(fx.src)
	opts.Direction = DirectionOptimizing
	opts.Wire = frontier.WireAuto

	full, err := Run2D(fx.world, fx.st2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.MaxLevel() < 2 {
		t.Fatalf("graph too shallow (max level %d)", full.MaxLevel())
	}

	opts.Checkpoint = checkpoint.NewPlan(2)
	if _, err := Run2D(fx.world, fx.st2, opts); err != nil {
		t.Fatal(err)
	}
	snap := opts.Checkpoint.Snapshot()

	w2, _ := comm.NewWorld(comm.Config{P: 4})
	ropts := opts
	ropts.Checkpoint = nil
	ropts.Restore = snap
	restored, err := Run2D(w2, fx.st2, ropts)
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, restored, full, "dirop at=2")
}

// TestCheckpointUnderFaults kills and restores a run with an active
// fault plan: the snapshot carries the transport's sequence counters
// and fault ledger, so the resumed run's retries pick up mid-schedule
// and the final Result still matches the uninterrupted faulted run.
func TestCheckpointUnderFaults(t *testing.T) {
	g := testGraph(t, 500, 5, 14)
	fx := build2D(t, g, 2, 2)
	opts := DefaultOptions(fx.src)
	opts.Fault = &fault.Plan{Seed: 9, PCorrupt: 0.05, PDrop: 0.05, PDuplicate: 0.05}

	full, err := Run2D(fx.world, fx.st2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Faults.Injected() == 0 {
		t.Fatal("plan injected nothing; test is vacuous")
	}
	if full.MaxLevel() < 2 {
		t.Fatalf("graph too shallow (max level %d)", full.MaxLevel())
	}

	opts.Checkpoint = checkpoint.NewPlan(2)
	if _, err := Run2D(fx.world, fx.st2, opts); err != nil {
		t.Fatal(err)
	}
	snap := opts.Checkpoint.Snapshot()

	w2, _ := comm.NewWorld(comm.Config{P: 4})
	ropts := opts
	ropts.Checkpoint = nil
	ropts.Restore = snap
	restored, err := Run2D(w2, fx.st2, ropts)
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, restored, full, "faulted at=2")
}

func TestCheckpointRejectsUnsupportedCombos(t *testing.T) {
	g := testGraph(t, 200, 4, 15)
	fx := build2D(t, g, 2, 2)
	cp := checkpoint.NewPlan(1)

	opts := DefaultOptions(fx.src)
	opts.Checkpoint = cp
	opts.Trace = trace.NewRecorder()
	if _, err := Run2D(fx.world, fx.st2, opts); err == nil {
		t.Error("checkpoint+trace accepted")
	}

	opts = DefaultOptions(fx.src)
	opts.HasTarget, opts.Target = true, fx.src+1
	opts.Checkpoint = cp
	if _, err := RunBidirectional2D(fx.world, fx.st2, opts); err == nil {
		t.Error("bidirectional checkpoint accepted")
	}

	opts = DefaultOptions(fx.src)
	opts.Checkpoint = cp
	if _, err := MultiRun2D(fx.world, fx.st2, []graph.Vertex{fx.src}, opts); err == nil {
		t.Error("multi-source checkpoint accepted")
	}
}

func TestRestoreRejectsMismatchedWorkload(t *testing.T) {
	g := testGraph(t, 300, 4, 16)
	fx := build2D(t, g, 2, 2)
	opts := DefaultOptions(fx.src)
	opts.Checkpoint = checkpoint.NewPlan(1)
	if _, err := Run2D(fx.world, fx.st2, opts); err != nil {
		t.Fatal(err)
	}
	snap := opts.Checkpoint.Snapshot()

	// Different source => different fingerprint.
	w2, _ := comm.NewWorld(comm.Config{P: 4})
	ropts := DefaultOptions(fx.src + 1)
	ropts.Restore = snap
	if _, err := Run2D(w2, fx.st2, ropts); err == nil {
		t.Error("mismatched source accepted")
	}

	// Different world size => Check fails before any blob decode.
	w3, _ := comm.NewWorld(comm.Config{P: 2})
	fx2 := build2D(t, g, 1, 2)
	ropts2 := DefaultOptions(fx.src)
	ropts2.Restore = snap
	if _, err := Run2D(w3, fx2.st2, ropts2); err == nil {
		t.Error("mismatched world size accepted")
	}
}

// TestRestoreRejectsCorruptBlob tampers with a snapshot blob; the
// decode must surface as a run error, not a crash.
func TestRestoreRejectsCorruptBlob(t *testing.T) {
	g := testGraph(t, 300, 4, 17)
	fx := build2D(t, g, 2, 2)
	opts := DefaultOptions(fx.src)
	opts.Checkpoint = checkpoint.NewPlan(1)
	if _, err := Run2D(fx.world, fx.st2, opts); err != nil {
		t.Fatal(err)
	}
	snap := opts.Checkpoint.Snapshot()
	snap.Blobs[1] = snap.Blobs[1][:len(snap.Blobs[1])/2] // truncate one rank

	w2, _ := comm.NewWorld(comm.Config{P: 4})
	ropts := DefaultOptions(fx.src)
	ropts.Restore = snap
	if _, err := Run2D(w2, fx.st2, ropts); err == nil {
		t.Error("truncated blob accepted")
	}
}
