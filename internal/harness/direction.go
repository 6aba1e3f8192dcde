package harness

import bgl "repro"

// RunAblationDirection compares the traversal directions level by
// level on the k=10 Poisson workload: the paper's always-top-down
// expansion against the direction-optimizing hybrid, reporting each
// level's direction, edges inspected, and wire words. The low-diameter
// middle levels are where bottom-up wins: an unlabeled vertex stops at
// its first frontier parent instead of the frontier pushing nearly
// every edge.
func RunAblationDirection(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title: "Ablation — traversal direction per level (top-down vs direction-optimizing)",
		Columns: []string{"level", "frontier", "dir(DO)",
			"edges topdown", "edges DO", "edges saved %",
			"words topdown", "words DO"},
	}
	cl, dg, err := ablationWorkload(cfg)
	if err != nil {
		return nil, err
	}
	src := dg.Graph().LargestComponentVertex()
	resTD, err := cl.BFS(dg, src)
	if err != nil {
		return nil, err
	}
	resDO, err := cl.BFS(dg, src, bgl.WithDirection(bgl.DirectionOptimizing))
	if err != nil {
		return nil, err
	}
	levels := max(len(resTD.PerLevel), len(resDO.PerLevel))
	var tdEdges, doEdges, tdWords, doWords int64
	for l := 0; l < levels; l++ {
		var a, b bgl.LevelStats
		if l < len(resTD.PerLevel) {
			a = resTD.PerLevel[l]
		}
		if l < len(resDO.PerLevel) {
			b = resDO.PerLevel[l]
		}
		saved := 0.0
		if a.EdgesScanned > 0 {
			saved = 100 * float64(a.EdgesScanned-b.EdgesScanned) / float64(a.EdgesScanned)
		}
		aw := a.ExpandWords + a.FoldWords
		bw := b.ExpandWords + b.FoldWords
		t.AddRow(l, a.Frontier, b.Direction.String(), a.EdgesScanned, b.EdgesScanned, saved, aw, bw)
		tdEdges += a.EdgesScanned
		doEdges += b.EdgesScanned
		tdWords += aw
		doWords += bw
	}
	savedTotal := 0.0
	if tdEdges > 0 {
		savedTotal = 100 * float64(tdEdges-doEdges) / float64(tdEdges)
	}
	t.AddRow("total", "", "", tdEdges, doEdges, savedTotal, tdWords, doWords)
	t.Note("expected: the hybrid switches to bottom-up on the large middle levels, where the")
	t.Note("first-parent early exit inspects a fraction of top-down's edges and the fixed-size")
	t.Note("bitmap exchanges replace frontier-proportional vertex lists")
	return t, nil
}
