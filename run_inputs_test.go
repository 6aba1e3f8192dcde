package bgl

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/bfs"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/search"
	"repro/internal/sssp"
	"repro/internal/trace"
)

// runInputs is what one Run* call is handed, in the shape every entry
// point can read: its world, the 2D stores and the 1 x P stores of the
// same graph (an entry takes the ones it runs on), the endpoints, the
// multi-source batch and the shared options.
type runInputs struct {
	w       *comm.World
	st2     []*partition.Store2D
	st1     []*partition.Store2D
	source  graph.Vertex
	target  graph.Vertex
	sources []graph.Vertex
	common  search.Common
}

func (in runInputs) bfsOpts(hasTarget bool) bfs.Options {
	o := bfs.DefaultOptions(in.source)
	o.Target, o.HasTarget, o.Common = in.target, hasTarget, in.common
	return o
}

func (in runInputs) ssspOpts() sssp.Options {
	return sssp.Options{Source: in.source, Common: in.common}
}

// TestRunRejectsBadInputs: every exported Run* entry point answers a
// malformed call with its family's one message for that fault — an
// error, never a panic, and before any World has started (the Cancel
// hook, which every driver polls first thing inside World.Run, is never
// called).
func TestRunRejectsBadInputs(t *testing.T) {
	const n = 400
	g, err := Generate(n, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	distribute := func(r, c int, part Partition) (*Cluster, *DistGraph) {
		cl, err := NewCluster(ClusterConfig{R: r, C: c})
		if err != nil {
			t.Fatal(err)
		}
		dg, err := cl.Distribute(g, WithPartition(part))
		if err != nil {
			t.Fatal(err)
		}
		return cl, dg
	}
	cl, dg2 := distribute(2, 2, Part2D)
	_, dg1 := distribute(1, 4, Part1DCol)
	// Stores laid out for two ranks, doubled up to the world's four: the
	// count is right and the layout is not.
	_, small2 := distribute(1, 2, Part2D)
	_, small1 := distribute(1, 2, Part1DCol)

	type entry struct {
		name                  string
		fam                   string
		target, batch, resume bool // takes a target / a batch / supports snapshots
		run                   func(in runInputs) error
	}
	entries := []entry{
		{"bfs.Run2D", "bfs", true, false, true, func(in runInputs) error {
			_, err := bfs.Run2D(in.w, in.st2, in.bfsOpts(true))
			return err
		}},
		{"bfs.Run2D-1dcol", "bfs", true, false, true, func(in runInputs) error {
			_, err := bfs.Run2D(in.w, in.st1, in.bfsOpts(true))
			return err
		}},
		{"bfs.RunBidirectional2D", "bfs", true, false, false, func(in runInputs) error {
			_, err := bfs.RunBidirectional2D(in.w, in.st2, in.bfsOpts(true))
			return err
		}},
		{"bfs.RunBidirectional2D-1dcol", "bfs", true, false, false, func(in runInputs) error {
			_, err := bfs.RunBidirectional2D(in.w, in.st1, in.bfsOpts(true))
			return err
		}},
		{"bfs.MultiRun2D", "bfs", false, true, false, func(in runInputs) error {
			_, err := bfs.MultiRun2D(in.w, in.st2, in.sources, in.bfsOpts(false))
			return err
		}},
		{"bfs.MultiRun2D-1dcol", "bfs", false, true, false, func(in runInputs) error {
			_, err := bfs.MultiRun2D(in.w, in.st1, in.sources, in.bfsOpts(false))
			return err
		}},
		{"sssp.Run2D", "sssp", false, false, true, func(in runInputs) error {
			_, err := sssp.Run2D(in.w, in.st2, in.ssspOpts())
			return err
		}},
		{"sssp.Run2D-1dcol", "sssp", false, false, true, func(in runInputs) error {
			_, err := sssp.Run2D(in.w, in.st1, in.ssspOpts())
			return err
		}},
	}

	faults := []struct {
		name    string
		applies func(e entry) bool
		break_  func(in *runInputs)
		want    string // after the "fam: " prefix
	}{
		{"no stores", nil, func(in *runInputs) { in.st2, in.st1 = nil, nil }, "no stores"},
		{"wrong store count", nil, func(in *runInputs) { in.st2, in.st1 = in.st2[:3], in.st1[:3] },
			"3 stores for world P=4"},
		{"layout P != world P", nil, func(in *runInputs) {
			in.st2 = append(append([]*partition.Store2D{}, small2.stores...), small2.stores...)
			in.st1 = append(append([]*partition.Store2D{}, small1.stores...), small1.stores...)
		}, "layout P=2 for world P=4"},
		{"source out of range", func(e entry) bool { return !e.batch }, func(in *runInputs) { in.source = n },
			"source 400 out of range for n=400"},
		{"target out of range", func(e entry) bool { return e.target }, func(in *runInputs) { in.target = n + 7 },
			"target 407 out of range for n=400"},
		{"lane out of range", func(e entry) bool { return e.batch }, func(in *runInputs) { in.sources = []graph.Vertex{1, n} },
			"source 400 (lane 1) out of range for n=400"},
		{"empty batch", func(e entry) bool { return e.batch }, func(in *runInputs) { in.sources = nil },
			"multi-source batch is empty"},
		{"65-lane batch", func(e entry) bool { return e.batch }, func(in *runInputs) { in.sources = make([]graph.Vertex, 65) },
			"65 sources exceed the 64-lane batch capacity"},
		{"checkpoint and restore together", func(e entry) bool { return e.resume }, func(in *runInputs) {
			in.common.Checkpoint, in.common.Restore = checkpoint.NewPlan(1), &checkpoint.Snapshot{}
		}, "cannot checkpoint and restore in the same run"},
		{"checkpoint with trace", func(e entry) bool { return e.resume }, func(in *runInputs) {
			in.common.Checkpoint, in.common.Trace = checkpoint.NewPlan(1), trace.NewRecorder()
		}, "checkpoint/restore cannot be combined with tracing"},
		{"checkpoint without snapshot support", func(e entry) bool { return !e.resume }, func(in *runInputs) {
			in.common.Checkpoint = checkpoint.NewPlan(1)
		}, "checkpoint/restore is only supported by the uni-directional drivers"},
	}

	for _, e := range entries {
		for _, f := range faults {
			if f.applies != nil && !f.applies(e) {
				continue
			}
			t.Run(e.name+"/"+f.name, func(t *testing.T) {
				var started atomic.Bool
				in := runInputs{w: cl.world, st2: dg2.stores, st1: dg1.stores,
					source: 1, target: 2, sources: []graph.Vertex{1, 2, 3}, common: search.Defaults()}
				in.common.Cancel = func(float64) error { started.Store(true); return nil }
				f.break_(&in)
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panicked: %v", p)
					}
				}()
				err := e.run(in)
				if want := e.fam + ": " + f.want; err == nil || !strings.HasPrefix(err.Error(), want) {
					t.Errorf("got error %v, want %q", err, want)
				}
				if started.Load() {
					t.Error("the World was started")
				}
			})
		}
	}

	// The well-formed call every fault above was derived from runs.
	for _, e := range entries {
		in := runInputs{w: cl.world, st2: dg2.stores, st1: dg1.stores,
			source: 1, target: 2, sources: []graph.Vertex{1, 2, 3}, common: search.Defaults()}
		if err := e.run(in); err != nil {
			t.Errorf("%s: well-formed call failed: %v", e.name, err)
		}
	}
}
