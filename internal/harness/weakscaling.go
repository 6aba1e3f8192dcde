package harness

import (
	"strconv"

	bgl "repro"
)

// graphSpec is one workload shape of the evaluation: vertices per rank
// and average degree.
type graphSpec struct {
	perRank int
	k       float64
}

// fig4aSeries are the per-rank problem sizes of Figure 4: the paper
// holds |V| per processor constant while varying the average degree so
// every series has the same per-rank edge budget (|V|·k = 10^6).
var fig4aSeries = []graphSpec{
	{100000, 10},
	{20000, 50},
	{10000, 100},
	{5000, 200},
}

// table1Graphs are Table 1's low-degree and high-degree graphs
// (|V|=100000, k=10 and |V|=10000, k=100 per rank), at the same
// divisor as the weak-scaling series; Figure 7 and the partitioning
// head-to-head reuse them.
var table1Graphs = []graphSpec{
	{100000 / fig4aScaleDivisor, 10},
	{10000 / fig4aScaleDivisor, 100},
}

// fig4aScaleDivisor shrinks the paper's per-rank sizes to laptop scale
// before Config.Scale applies: paper |V|=100000/rank becomes 10000/rank
// at Scale=1. This keeps the per-rank compute large enough that
// communication stays a small fraction of execution time, as on the
// real machine (Figure 4a).
const fig4aScaleDivisor = 10

// RunFig4a reproduces Figure 4a: weak-scaling mean search time per
// series, plus the communication-time curve for the k=10 series. Times
// are simulated seconds from the torus cost model; the expected shape
// is growth proportional to log P (graph diameter grows with n) with
// smaller absolute times for higher k.
func RunFig4a(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Figure 4a — weak scaling of distributed BFS (2D partitioning)",
		Columns: []string{"series", "P", "R x C", "n", "k", "exec(s)", "comm(s)"},
	}
	for _, series := range fig4aSeries {
		perRank := cfg.scaleCount(series.perRank / fig4aScaleDivisor)
		for _, p := range weakPoints(cfg.MaxP) {
			r, c := squareMesh(p)
			n := perRank * p
			k := fitK(n, series.k)
			g, err := bgl.Generate(n, k, cfg.Seed)
			if err != nil {
				return nil, err
			}
			cl, dg, err := distribute(g, bgl.ClusterConfig{R: r, C: c})
			if err != nil {
				return nil, err
			}
			exec, comm, err := meanSearch(cl, dg, searchPairs(g, cfg.Searches, cfg.Seed+int64(p)))
			if err != nil {
				return nil, err
			}
			t.AddRow(
				seriesLabel(perRank, k), p,
				meshLabel(r, c), n, k, exec, comm,
			)
		}
	}
	t.Note("paper: curves grow ∝ log P; higher k runs faster; comm time ≪ exec time")
	t.Note("per-rank sizes are paper's /%d, then ×Scale", fig4aScaleDivisor)
	return t, nil
}

// RunFig4c reproduces Figure 4c: bi-directional vs uni-directional
// weak scaling for the k=10 series. The paper reports the
// bi-directional search at ~33% of the uni-directional time in the
// worst case.
func RunFig4c(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Figure 4c — bi-directional vs uni-directional search (k=10 series)",
		Columns: []string{"P", "n", "uni exec(s)", "bi exec(s)", "bi/uni", "uni vol", "bi vol"},
	}
	perRank := cfg.scaleCount(fig4aSeries[0].perRank / fig4aScaleDivisor)
	k := fig4aSeries[0].k
	for _, p := range weakPoints(cfg.MaxP) {
		r, c := squareMesh(p)
		n := perRank * p
		g, err := bgl.Generate(n, fitK(n, k), cfg.Seed)
		if err != nil {
			return nil, err
		}
		cl, dg, err := distribute(g, bgl.ClusterConfig{R: r, C: c})
		if err != nil {
			return nil, err
		}
		pairs := searchPairs(g, cfg.Searches, cfg.Seed+int64(p))
		var uniExec, biExec float64
		var uniVol, biVol int64
		for _, pr := range pairs {
			uni, err := cl.Search(dg, pr[0], pr[1])
			if err != nil {
				return nil, err
			}
			bi, err := cl.BiSearch(dg, pr[0], pr[1])
			if err != nil {
				return nil, err
			}
			uniExec += uni.SimTime
			biExec += bi.SimTime
			uniVol += uni.TotalFoldWords + uni.TotalExpandWords
			biVol += bi.TotalFoldWords + bi.TotalExpandWords
		}
		sc := float64(len(pairs))
		ratio := 0.0
		if uniExec > 0 {
			ratio = biExec / uniExec
		}
		t.AddRow(p, n, uniExec/sc, biExec/sc, ratio, uniVol, biVol)
	}
	t.Note("paper: bi-directional ≤ ~33%% of uni-directional in the worst case; volume orders of magnitude lower")
	return t, nil
}

// RunFig5 reproduces Figure 5: strong scaling. The graph is fixed and P
// grows; speedup is simulated-time(P=1)/simulated-time(P). The paper
// observes ~√P growth for small P, tapering as the per-rank problem
// shrinks and communication dominates.
func RunFig5(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Figure 5 — strong scaling speedup",
		Columns: []string{"k", "P", "R x C", "exec(s)", "speedup"},
	}
	refP := min(cfg.MaxP, 256)
	for _, series := range fig4aSeries {
		// Fixed graph sized so the largest run matches the series'
		// per-rank budget (the paper fixes the graph per series).
		baseN := cfg.scaleCount(series.perRank/fig4aScaleDivisor) * refP
		k := fitK(baseN, series.k)
		g, err := bgl.Generate(baseN, k, cfg.Seed)
		if err != nil {
			return nil, err
		}
		// The graph is fixed across P, so use the same search pairs at
		// every point: speedup then compares identical work.
		pairs := searchPairs(g, cfg.Searches, cfg.Seed)
		var t1 float64
		for _, p := range weakPoints(cfg.MaxP) {
			r, c := squareMesh(p)
			cl, dg, err := distribute(g, bgl.ClusterConfig{R: r, C: c})
			if err != nil {
				return nil, err
			}
			exec, _, err := meanSearch(cl, dg, pairs)
			if err != nil {
				return nil, err
			}
			if p == 1 {
				t1 = exec
			}
			speedup := 0.0
			if exec > 0 {
				speedup = t1 / exec
			}
			t.AddRow(k, p, meshLabel(r, c), exec, speedup)
		}
	}
	t.Note("paper: speedup ∝ √P for small P, tapering for large P as communication dominates")
	return t, nil
}

func seriesLabel(perRank int, k float64) string {
	return "|V|=" + strconv.Itoa(perRank) + ",k=" + strconv.FormatFloat(k, 'g', -1, 64)
}

func meshLabel(r, c int) string { return strconv.Itoa(r) + "x" + strconv.Itoa(c) }
