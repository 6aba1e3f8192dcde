package harness

import (
	bgl "repro"
	"repro/internal/analytic"
)

// RunMemScale demonstrates the §2.4.1 memory argument: under weak
// scaling, the number of non-empty partial edge lists per rank — and
// the number of distinct vertices appearing in them — stays O(n/P)
// even though a rank's block column spans O(n/C) vertices. This is the
// property that lets the 2D partitioning index only non-empty lists
// and keep per-rank memory flat as the machine grows.
func RunMemScale(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title: "§2.4.1 — per-rank memory scales as O(n/P), not O(n/C)",
		Columns: []string{
			"P", "R x C", "n/P", "max non-empty cols", "analytic E[cols]",
			"max distinct rows", "dense bound n/C", "cols ÷ (n/P)",
		},
	}
	perRank := cfg.scaleCount(100000 / fig4aScaleDivisor)
	k := 10.0
	for _, p := range weakPoints(cfg.MaxP) {
		if p < 4 {
			continue // a 1x1 or degenerate mesh has no column sharing
		}
		r, c := squareMesh(p)
		n := perRank * p
		g, err := bgl.Generate(n, fitK(n, k), cfg.Seed)
		if err != nil {
			return nil, err
		}
		_, dg, err := distribute(g, bgl.ClusterConfig{R: r, C: c})
		if err != nil {
			return nil, err
		}
		maxCols, maxRows, dense := 0, 0, 0
		for _, m := range dg.Memory() {
			maxCols = max(maxCols, m.NonEmptyColumns)
			maxRows = max(maxRows, m.DistinctRows)
			dense = m.DenseColumns
		}
		t.AddRow(p, meshLabel(r, c), perRank, maxCols,
			analytic.ExpectedNonEmptyLists(float64(n), k, r, c),
			maxRows, dense, float64(maxCols)/float64(perRank))
	}
	if len(t.Rows) == 0 {
		t.Note("no P ≥ 4 fits under MaxP=%d: a 1x1 mesh has no column sharing to measure", cfg.MaxP)
	}
	t.Note("k=%g; the cols/(n/P) ratio stays bounded (≈min(k,R)) while the dense bound grows with R", k)
	t.Note("paper §2.4.1: expected non-empty edge lists per rank is O(n/P); only those are indexed")
	return t, nil
}
