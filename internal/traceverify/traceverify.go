// Package traceverify cross-checks a checked trace (trace.Check's
// re-derivation) against the Result the traced run reported. Together
// with the trace-internal invariants this closes the loop: the span
// stream alone re-derives the simulated clock decomposition AND
// matches the engine's own statistics — simulated times within the
// float round-trip tolerance, per-level/per-epoch word counts exactly
// (they travel as integer span args).
package traceverify

import (
	"fmt"
	"math"

	"repro/internal/bfs"
	"repro/internal/sssp"
	"repro/internal/trace"
)

func tol(clock float64) float64 { return trace.Tolerance * math.Max(1, clock) }

func checkSim(d *trace.Derived, simTime, simComm, simOverlap float64) error {
	eps := tol(d.MaxClock)
	if math.Abs(d.MaxClock-simTime) > eps {
		return fmt.Errorf("traceverify: trace max clock %g != Result SimTime %g", d.MaxClock, simTime)
	}
	if math.Abs(d.MaxComm-simComm) > eps {
		return fmt.Errorf("traceverify: trace max comm %g != Result SimComm %g", d.MaxComm, simComm)
	}
	if math.Abs(d.MaxOverlap-simOverlap) > eps {
		return fmt.Errorf("traceverify: trace max overlap %g != Result SimOverlap %g", d.MaxOverlap, simOverlap)
	}
	return nil
}

// want is one integer span arg a step's spans must sum to.
type want struct {
	key string
	val int64
}

// checkSteps verifies the trace's spans of one kind ("level", "epoch")
// against the n records the Result reports: record(i, ranks) returns
// record i's span name ("" when the kind has one name), its critical
// path and the args its spans must carry, summed over the ranks.
func checkSteps(kind string, d *trace.Derived, pts []trace.PhaseTotals, n int, record func(i, ranks int) (name string, execS float64, args []want)) error {
	if len(pts) != n {
		return fmt.Errorf("traceverify: trace has %d %s spans, Result has %d %ss", len(pts), kind, n, kind)
	}
	eps := tol(d.MaxClock)
	for i, pt := range pts {
		name, execS, args := record(i, pt.Ranks)
		if name != "" && pt.Name != name {
			return fmt.Errorf("traceverify: %s %d: trace phase %q != Result phase %q", kind, i, pt.Name, name)
		}
		if math.Abs(pt.MaxS-execS) > eps {
			return fmt.Errorf("traceverify: %s %d: trace critical path %g != Result ExecS %g", kind, i, pt.MaxS, execS)
		}
		for _, w := range args {
			if got := pt.Args[w.key]; got != w.val {
				return fmt.Errorf("traceverify: %s %d: trace %s = %d, Result records %d", kind, i, w.key, got, w.val)
			}
		}
	}
	return nil
}

// BFS verifies a checked trace against a BFS (or multi-source BFS)
// Result: simulated time/comm/overlap maxima, the level count, each
// level's critical path, and the exact per-level word counts.
func BFS(d *trace.Derived, res *bfs.Result) error {
	if err := checkSim(d, res.SimTime, res.SimComm, res.SimOverlap); err != nil {
		return err
	}
	return checkSteps("level", d, d.Levels, len(res.PerLevel), func(i, ranks int) (string, float64, []want) {
		ls := res.PerLevel[i]
		return "", ls.ExecS, []want{
			{"frontier", ls.Frontier},
			{"expand_words", ls.ExpandWords},
			{"fold_words", ls.FoldWords},
			{"dups", ls.Dups},
			{"marked", ls.Marked},
			{"edges", ls.EdgesScanned},
			// dir is per-rank uniform, so the rank-wise sum is dir x ranks.
			{"dir", int64(ls.Direction) * int64(ranks)},
		}
	})
}

// SSSP verifies a checked trace against a Δ-stepping Result: simulated
// maxima, the epoch count, each epoch's phase name and critical path,
// and the exact per-epoch word/relaxation counts.
func SSSP(d *trace.Derived, res *sssp.Result) error {
	if err := checkSim(d, res.SimTime, res.SimComm, res.SimOverlap); err != nil {
		return err
	}
	return checkSteps("epoch", d, d.Epochs, len(res.PerEpoch), func(i, ranks int) (string, float64, []want) {
		es := res.PerEpoch[i]
		return es.Phase.String(), es.ExecS, []want{
			// bucket is per-rank uniform, so the rank-wise sum is bucket x ranks.
			{"bucket", int64(es.Bucket) * int64(ranks)},
			{"active", es.Active},
			{"expand_words", es.ExpandWords},
			{"fold_words", es.FoldWords},
			{"relaxations", es.Relaxations},
			{"resettles", es.ReSettles},
			{"edges", es.EdgesScanned},
		}
	})
}

// Export renders a recorder to Chrome JSON and runs the full pipeline:
// parse, invariant check, and (via the returned Derived) Result
// cross-checks. Convenience for the CLIs and tests.
func Export(rec *trace.Recorder) ([]byte, *trace.Derived, error) {
	data, err := rec.Chrome()
	if err != nil {
		return nil, nil, err
	}
	doc, err := trace.Parse(data)
	if err != nil {
		return nil, nil, err
	}
	d, err := trace.Check(doc)
	if err != nil {
		return nil, nil, err
	}
	return data, d, nil
}
