package traceverify

import (
	"math"
	"slices"
	"strings"
	"testing"

	bgl "repro"
	"repro/internal/bfs"
	"repro/internal/sssp"
	"repro/internal/trace"
)

// tracedRuns runs one traced direction-optimizing BFS and one traced
// Δ-stepping search on a small weighted graph over a 2x2 mesh and
// returns each checked trace with its Result.
func tracedRuns(t *testing.T) (*trace.Derived, *bfs.Result, *trace.Derived, *sssp.Result) {
	t.Helper()
	g, err := bgl.GenerateWeighted(2000, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := bgl.NewCluster(bgl.ClusterConfig{R: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := cl.Distribute(g)
	if err != nil {
		t.Fatal(err)
	}
	src := g.LargestComponentVertex()
	rec := bgl.NewTrace()
	res, err := cl.BFS(dg, src, bgl.WithDirection(bgl.DirectionOptimizing), bgl.WithTrace(rec))
	if err != nil {
		t.Fatal(err)
	}
	_, d, err := Export(rec)
	if err != nil {
		t.Fatal(err)
	}
	recS := bgl.NewTrace()
	resS, err := cl.SSSP(dg, src, bgl.WithTrace(recS))
	if err != nil {
		t.Fatal(err)
	}
	_, dS, err := Export(recS)
	if err != nil {
		t.Fatal(err)
	}
	return d, res, dS, resS
}

// wantNamed requires err to be a failure that names field.
func wantNamed(t *testing.T, what string, err error, field string) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: accepted", what)
	} else if !strings.Contains(err.Error(), field) {
		t.Errorf("%s: error %q does not name %s", what, err, field)
	}
}

// TestVerifyRejectsPerturbedResult: the unmodified Results pass, and a
// copy with any one checked field moved fails with an error that names
// that field.
func TestVerifyRejectsPerturbedResult(t *testing.T) {
	d, res, dS, resS := tracedRuns(t)
	if err := BFS(d, res); err != nil {
		t.Fatalf("unmodified BFS Result: %v", err)
	}
	if err := SSSP(dS, resS); err != nil {
		t.Fatalf("unmodified SSSP Result: %v", err)
	}
	if len(res.PerLevel) < 3 || len(resS.PerEpoch) < 3 {
		t.Fatalf("fixture too shallow: %d levels, %d epochs", len(res.PerLevel), len(resS.PerEpoch))
	}
	// beyond moves a simulated time past the float round-trip tolerance.
	beyond := 10 * trace.Tolerance * math.Max(1, d.MaxClock)
	mid := len(res.PerLevel) / 2
	bfsCase := func(what, field string, perturb func(r *bfs.Result, ls *bfs.LevelStats)) {
		r := *res
		r.PerLevel = slices.Clone(res.PerLevel)
		perturb(&r, &r.PerLevel[mid])
		wantNamed(t, "BFS "+what, BFS(d, &r), field)
	}
	bfsCase("SimTime", "SimTime", func(r *bfs.Result, _ *bfs.LevelStats) { r.SimTime += beyond })
	bfsCase("level count", "levels", func(r *bfs.Result, _ *bfs.LevelStats) { r.PerLevel = r.PerLevel[:len(r.PerLevel)-1] })
	bfsCase("ExecS", "ExecS", func(_ *bfs.Result, ls *bfs.LevelStats) { ls.ExecS += beyond })
	bfsCase("frontier", "frontier", func(_ *bfs.Result, ls *bfs.LevelStats) { ls.Frontier++ })
	bfsCase("expand_words", "expand_words", func(_ *bfs.Result, ls *bfs.LevelStats) { ls.ExpandWords++ })
	bfsCase("fold_words", "fold_words", func(_ *bfs.Result, ls *bfs.LevelStats) { ls.FoldWords++ })
	bfsCase("dups", "dups", func(_ *bfs.Result, ls *bfs.LevelStats) { ls.Dups++ })
	bfsCase("marked", "marked", func(_ *bfs.Result, ls *bfs.LevelStats) { ls.Marked++ })
	bfsCase("edges", "edges", func(_ *bfs.Result, ls *bfs.LevelStats) { ls.EdgesScanned++ })
	bfsCase("dir", "dir", func(_ *bfs.Result, ls *bfs.LevelStats) { ls.Direction = bfs.BottomUp - ls.Direction })

	midS := len(resS.PerEpoch) / 2
	r := *resS
	r.PerEpoch = slices.Clone(resS.PerEpoch)
	r.PerEpoch[midS].Phase = sssp.PhaseHeavy - r.PerEpoch[midS].Phase
	wantNamed(t, "SSSP epoch Phase", SSSP(dS, &r), "phase")
}
