package harness

import (
	"fmt"

	bgl "repro"
)

// RunAblationOverlap compares the phase-synchronous schedule against
// the overlapped (asynchronous) one on the headline Poisson workload:
// the same exchanges, words, and results, but with every send posted
// before any wait and received parts streaming into the local scan.
// BFS rows report per-level critical-path time under both schedules
// with the fraction of communication the coprocessor-progressed
// transfers kept off the clock; Δ-stepping rows (whose relax exchanges
// dominate simulated time at P=16) report per-run totals across the
// partitionings.
func RunAblationOverlap(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title: "Ablation — async overlap: expand/fold exchanges hidden under the local scan",
		Columns: []string{"run", "level/epochs", "sync exec ms", "async exec ms",
			"speedup", "async comm ms/rank", "hidden %"},
	}
	g, mesh, err := ablationGraph(cfg, 16)
	if err != nil {
		return nil, err
	}
	r, c, p := mesh.R, mesh.C, mesh.R*mesh.C
	n, k := g.N(), fitK(g.N(), ablationK)

	// BFS: per-level comparison on the 2D mesh.
	cl, dg, err := distribute(g, mesh)
	if err != nil {
		return nil, err
	}
	src := g.LargestComponentVertex()
	runBFS := func(async bool) (*bgl.Result, error) {
		return cl.BFS(dg, src, bgl.WithAsync(async))
	}
	syncRes, err := runBFS(false)
	if err != nil {
		return nil, err
	}
	asyncRes, err := runBFS(true)
	if err != nil {
		return nil, err
	}
	// The comm column is the per-rank mean of the exchange communication
	// charged inside the level (LevelStats.CommS sums over ranks), so
	// the per-level rows and the total row reconcile by addition.
	label := "bfs " + meshLabel(r, c)
	var commTot, overlapTot float64
	for l := range syncRes.PerLevel {
		s, a := syncRes.PerLevel[l], asyncRes.PerLevel[l]
		commTot += a.CommS
		overlapTot += a.OverlapS
		t.AddRow(label, l, 1e3*s.ExecS, 1e3*a.ExecS, ratio(s.ExecS, a.ExecS),
			1e3*a.CommS/float64(p), 100*a.HiddenFrac())
	}
	t.AddRow(label, "total", 1e3*syncRes.SimTime, 1e3*asyncRes.SimTime,
		ratio(syncRes.SimTime, asyncRes.SimTime), 1e3*commTot/float64(p),
		100*pctOf(overlapTot, commTot))

	// Δ-stepping: totals on the weighted variant across partitionings,
	// both laid out over the one 2D cluster.
	wg, err := bgl.GenerateWeighted(n, k, cfg.Seed, bgl.WithMaxWeight(256))
	if err != nil {
		return nil, err
	}
	wsrc := wg.LargestComponentVertex()
	for _, spec := range []struct {
		label string
		part  bgl.Partition
		r, c  int
	}{
		{"sssp 2d", bgl.Part2D, r, c},
		{"sssp 1d", bgl.Part1DCol, 1, p},
	} {
		wdg, err := cl.Distribute(wg, bgl.WithPartition(spec.part))
		if err != nil {
			return nil, err
		}
		run := func(async bool) (*bgl.SSSPResult, error) {
			return cl.SSSP(wdg, wsrc, bgl.WithAsync(async))
		}
		syncS, err := run(false)
		if err != nil {
			return nil, err
		}
		asyncS, err := run(true)
		if err != nil {
			return nil, err
		}
		var commTot, overlapTot float64
		for _, es := range asyncS.PerEpoch {
			commTot += es.CommS
			overlapTot += es.OverlapS
		}
		t.AddRow(spec.label+" "+meshLabel(spec.r, spec.c), syncS.Epochs, 1e3*syncS.SimTime, 1e3*asyncS.SimTime,
			ratio(syncS.SimTime, asyncS.SimTime), 1e3*commTot/float64(p),
			100*pctOf(overlapTot, commTot))
	}

	t.Note("n=%d k=%g P=%d: identical levels/distances and words under both schedules;", n, k, p)
	t.Note("async posts every send before any wait (BG/L coprocessor mode) and streams parts")
	t.Note("into the hash-probe scan, so wire time and message overheads hide under compute.")
	t.Note("Δ-stepping gains most: many small exchanges whose per-epoch scans cover them.")
	return t, nil
}

func ratio(a, b float64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", a/b)
}

func pctOf(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
