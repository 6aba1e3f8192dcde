package harness

import (
	bgl "repro"
	"repro/internal/analytic"
)

// RunFig4b reproduces Figure 4b: total message volume of a search as a
// function of the s→t path length. The paper uses a 12M-vertex,
// 120M-edge graph; at Scale=1 we use 120k vertices, k=10, P=16. Volume
// grows quickly with path length until the path length reaches the
// graph diameter.
func RunFig4b(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Figure 4b — message volume vs length of search path",
		Columns: []string{"path length", "fold vol", "expand vol", "total vol"},
	}
	n := cfg.scaleCount(120000/16) * 16
	k := fitK(n, 10)
	r, c := squareMesh(min(16, cfg.MaxP))
	g, err := bgl.Generate(n, k, cfg.Seed)
	if err != nil {
		return nil, err
	}
	cl, dg, err := distribute(g, bgl.ClusterConfig{R: r, C: c})
	if err != nil {
		return nil, err
	}
	src := g.LargestComponentVertex()
	levels := g.SerialBFS(src)
	for depth := int32(3); depth <= 9; depth++ {
		target, ok := targetAtDepth(levels, depth)
		if !ok {
			t.Note("no vertex at depth %d (graph diameter reached)", depth)
			continue
		}
		res, err := cl.Search(dg, src, target)
		if err != nil {
			return nil, err
		}
		t.AddRow(depth, res.TotalFoldWords, res.TotalExpandWords,
			res.TotalFoldWords+res.TotalExpandWords)
	}
	t.Note("n=%d k=%g on %s; paper: volume rises steeply until path length ≈ diameter (≈%.1f)",
		n, k, meshLabel(r, c), analytic.ExpectedDiameter(n, k))
	return t, nil
}

// RunFig6a reproduces Figure 6a: per-level fold message volume of 1D vs
// 2D partitionings at k=10 and k=50, on a full traversal (the paper
// searches for an unreachable target to capture worst-case behavior).
// For the low degree 1D generates less volume per level; for the high
// degree 2D wins.
func RunFig6a(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	return fig6Volumes(cfg, []float64{10, 50}, nil)
}

// RunFig6b reproduces Figure 6b: the crossover degree. The equation of
// §4 is solved for the scaled (n, P) and both partitionings run at that
// k; their per-level volumes should nearly coincide.
func RunFig6b(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	p := fig6P(cfg)
	n := fig6N(cfg, p)
	if p == 1 {
		t := &Table{
			Title:   "Figure 6b — 1D vs 2D at the computed crossover degree",
			Columns: []string{"k", "level", "2D vol", "1D vol"},
		}
		t.Note("MaxP=%d leaves one rank, which moves no words: there is no crossover to compute", cfg.MaxP)
		return t, nil
	}
	k, err := analytic.CrossoverK(float64(n), p, float64(n-1))
	if err != nil {
		return nil, err
	}
	t, err := fig6Volumes(cfg, []float64{k}, &k)
	if err != nil {
		return nil, err
	}
	t.Title = "Figure 6b — 1D vs 2D at the computed crossover degree"
	return t, nil
}

// fig6P is the largest candidate P that fits under MaxP, or 1 when
// none does; each is a perfect square so the 2D mesh is square
// (paper: 400 = 20x20).
func fig6P(cfg Config) int {
	for _, p := range []int{400, 256, 100, 64, 16, 4} {
		if p <= cfg.MaxP {
			return p
		}
	}
	return 1
}

func fig6N(cfg Config, p int) int {
	// Paper: 40M vertices over 400 ranks = 100k per rank; scaled by the
	// same /10 divisor as the weak-scaling series.
	return cfg.scaleCount(100000/fig4aScaleDivisor) * p
}

func fig6Volumes(cfg Config, ks []float64, crossover *float64) (*Table, error) {
	t := &Table{
		Title:   "Figure 6a — per-level fold volume, 1D vs 2D partitioning",
		Columns: []string{"k", "level", "2D vol", "1D vol"},
	}
	p := fig6P(cfg)
	n := fig6N(cfg, p)
	r, c := squareMesh(p)
	for _, kRaw := range ks {
		k := fitK(n, kRaw)
		g, err := bgl.Generate(n, k, cfg.Seed)
		if err != nil {
			return nil, err
		}
		run := func(rr, cc int) (*bgl.Result, error) {
			cl, dg, err := distribute(g, bgl.ClusterConfig{R: rr, C: cc})
			if err != nil {
				return nil, err
			}
			// Full traversal = unreachable-target worst case. Direct
			// targeted collectives so that "received words" counts
			// each index once, matching the §3.1 analysis the figure
			// compares against (ring-based folds re-count in-flight
			// hops).
			return cl.BFS(dg, g.LargestComponentVertex(),
				bgl.WithExpand(bgl.ExpandTargeted), bgl.WithFold(bgl.FoldDirect))
		}
		res2, err := run(r, c)
		if err != nil {
			return nil, err
		}
		res1, err := run(1, p)
		if err != nil {
			return nil, err
		}
		maxLv := max(len(res2.PerLevel), len(res1.PerLevel))
		for lv := 0; lv < maxLv; lv++ {
			var v2, v1 int64
			if lv < len(res2.PerLevel) {
				v2 = res2.PerLevel[lv].FoldWords + res2.PerLevel[lv].ExpandWords
			}
			if lv < len(res1.PerLevel) {
				v1 = res1.PerLevel[lv].FoldWords + res1.PerLevel[lv].ExpandWords
			}
			t.AddRow(k, lv, v2, v1)
		}
	}
	t.Note("n=%d, P=%d (2D as %s, 1D as 1x%d); volumes are total words received per level", n, p, meshLabel(r, c), p)
	if crossover != nil {
		t.Note("crossover degree from n·γ(n/P)·(P−1)/P = 2·(n/P)·γ(n/√P)·(√P−1): k = %.4g", *crossover)
		t.Note("paper computes k=34 for n=4e7, P=400; exact solve of the same equation gives ≈31.3")
	} else {
		t.Note("paper: 1D volume grows slower for k=10; 2D generates less for k=50")
	}
	return t, nil
}
