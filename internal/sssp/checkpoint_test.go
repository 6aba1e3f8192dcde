package sssp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/trace"
)

// scrubWall zeroes the only Result field that legitimately differs
// between an uninterrupted run and a kill/restore pair.
func scrubWall(r *Result) *Result {
	cp := *r
	cp.Wall = 0
	return &cp
}

func resultsIdentical(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(scrubWall(got), scrubWall(want)) {
		t.Fatalf("%s: restored Result differs from uninterrupted run\ngot:  %+v\nwant: %+v", label, got, want)
	}
}

func TestCheckpointRestore2D(t *testing.T) {
	g := poisson(t, 800, 5, 21, graph.WeightUniform, 60)
	fx := build2D(t, g, 2, 2)
	opts := DefaultOptions(fx.src)
	opts.Wire = frontier.WireHybrid

	full, err := Run2D(fx.world, fx.stores, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Epochs < 4 {
		t.Fatalf("run too short for an interior checkpoint (%d epochs)", full.Epochs)
	}

	for _, at := range []int{0, 1, full.Epochs / 2, full.Epochs - 1} {
		opts := opts
		opts.Checkpoint = checkpoint.NewPlan(at)
		partial, err := Run2D(fx.world, fx.stores, opts)
		if err != nil {
			t.Fatalf("at=%d checkpoint run: %v", at, err)
		}
		snap := opts.Checkpoint.Snapshot()
		if snap == nil {
			t.Fatalf("at=%d: no snapshot deposited", at)
		}
		if len(partial.PerEpoch) < at {
			t.Fatalf("at=%d: partial run recorded %d epochs", at, len(partial.PerEpoch))
		}

		w2, err := comm.NewWorld(comm.Config{P: 4})
		if err != nil {
			t.Fatal(err)
		}
		ropts := opts
		ropts.Checkpoint = nil
		ropts.Restore = snap
		restored, err := Run2D(w2, fx.stores, ropts)
		if err != nil {
			t.Fatalf("at=%d restore run: %v", at, err)
		}
		resultsIdentical(t, restored, full, fmt.Sprintf("at=%d", at))
	}
}

func TestCheckpointRestore1D(t *testing.T) {
	g := poisson(t, 600, 4, 22, graph.WeightExponential, 80)
	stores, w := build1D(t, g, 4)
	src := graph.LargestComponentVertex(g)
	opts := DefaultOptions(src)

	full, err := Run2D(w, stores, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Epochs < 4 {
		t.Fatalf("run too short (%d epochs)", full.Epochs)
	}

	opts.Checkpoint = checkpoint.NewPlan(full.Epochs / 2)
	if _, err := Run2D(w, stores, opts); err != nil {
		t.Fatal(err)
	}
	snap := opts.Checkpoint.Snapshot()

	w2, _ := comm.NewWorld(comm.Config{P: 4})
	ropts := opts
	ropts.Checkpoint = nil
	ropts.Restore = snap
	restored, err := Run2D(w2, stores, ropts)
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, restored, full, "1D mid-run")
}

// TestCheckpointUnderFaults kills and restores a Δ-stepping run with an
// active fault plan; the resumed run's retries pick up mid-schedule.
func TestCheckpointUnderFaults(t *testing.T) {
	g := poisson(t, 600, 5, 23, graph.WeightUniform, 50)
	fx := build2D(t, g, 2, 2)
	opts := DefaultOptions(fx.src)
	opts.Fault = &fault.Plan{Seed: 5, PCorrupt: 0.05, PDrop: 0.05, PDuplicate: 0.05}

	full, err := Run2D(fx.world, fx.stores, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Faults.Injected() == 0 {
		t.Fatal("plan injected nothing; test is vacuous")
	}

	opts.Checkpoint = checkpoint.NewPlan(full.Epochs / 2)
	if _, err := Run2D(fx.world, fx.stores, opts); err != nil {
		t.Fatal(err)
	}
	snap := opts.Checkpoint.Snapshot()

	w2, _ := comm.NewWorld(comm.Config{P: 4})
	ropts := opts
	ropts.Checkpoint = nil
	ropts.Restore = snap
	restored, err := Run2D(w2, fx.stores, ropts)
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, restored, full, "faulted mid-run")
}

func TestCheckpointRejectsUnsupportedCombos(t *testing.T) {
	g := poisson(t, 300, 4, 24, graph.WeightUniform, 40)
	fx := build2D(t, g, 2, 2)

	opts := DefaultOptions(fx.src)
	opts.Checkpoint = checkpoint.NewPlan(1)
	opts.Trace = trace.NewRecorder()
	if _, err := Run2D(fx.world, fx.stores, opts); err == nil {
		t.Error("checkpoint+trace accepted")
	}

	opts = DefaultOptions(fx.src)
	opts.Checkpoint = checkpoint.NewPlan(1)
	if _, err := Run2D(fx.world, fx.stores, opts); err != nil {
		t.Fatal(err)
	}
	opts.Restore = opts.Checkpoint.Snapshot()
	if _, err := Run2D(fx.world, fx.stores, opts); err == nil {
		t.Error("checkpoint+restore in one run accepted")
	}
}

func TestRestoreRejectsMismatchedWorkload(t *testing.T) {
	g := poisson(t, 300, 4, 25, graph.WeightUniform, 40)
	fx := build2D(t, g, 2, 2)
	opts := DefaultOptions(fx.src)
	opts.Checkpoint = checkpoint.NewPlan(1)
	if _, err := Run2D(fx.world, fx.stores, opts); err != nil {
		t.Fatal(err)
	}
	snap := opts.Checkpoint.Snapshot()

	w2, _ := comm.NewWorld(comm.Config{P: 4})
	ropts := DefaultOptions(fx.src)
	ropts.Delta = 3 // differs from the snapshot's options
	ropts.Restore = snap
	if _, err := Run2D(w2, fx.stores, ropts); err == nil {
		t.Error("mismatched Delta accepted")
	}

	// A BFS snapshot must be rejected by kind before any blob decode.
	snap2 := *snap
	snap2.Kind = "bfs"
	ropts2 := DefaultOptions(fx.src)
	ropts2.Restore = &snap2
	w3, _ := comm.NewWorld(comm.Config{P: 4})
	if _, err := Run2D(w3, fx.stores, ropts2); err == nil {
		t.Error("wrong-kind snapshot accepted")
	}

	// Another graph of the same n and mesh: the store digest differs.
	other := build2D(t, poisson(t, 300, 4, 26, graph.WeightUniform, 40), 2, 2)
	ropts3 := DefaultOptions(fx.src)
	ropts3.Restore = snap
	w4, _ := comm.NewWorld(comm.Config{P: 4})
	if _, err := Run2D(w4, other.stores, ropts3); err == nil || !strings.Contains(err.Error(), "another graph") {
		t.Errorf("a snapshot restored onto another graph: %v", err)
	}
}
