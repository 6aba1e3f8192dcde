package harness

import (
	"slices"

	bgl "repro"
)

// RunTable1 reproduces Table 1: execution time, communication time and
// average expand/fold message lengths per level for four processor
// topologies — square-ish 2D meshes both ways, the row-wise 1D
// partition (R x 1) and the conventional column 1D partition (1 x C) —
// on a low-degree and a high-degree graph.
//
// Paper (P=32768): topologies 128x256, 256x128, 32768x1, 1x32768 with
// (|V|=100000, k=10) and (|V|=10000, k=100). Scaled: P=128 by default
// with per-rank sizes /100.
func RunTable1(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Table 1 — performance for various processor topologies",
		Columns: []string{"graph", "R x C", "exec(s)", "comm(s)", "avg expand len", "avg fold len"},
	}
	p := cfg.pow2P(128)
	// The paper's 2D meshes have a 1:2 aspect (128x256 and 256x128);
	// use the r x 2r split of p when it is a 2D mesh, else the square.
	r0, c0 := squareMesh(p / 2)
	if c0 *= 2; r0*c0 != p || r0 == 1 {
		r0, c0 = squareMesh(p)
	}
	// Below P = 8 meshes coincide (at P = 4 both 2D meshes are 2x2, at
	// P = 2 they are the 1D ones): each is run once.
	var topologies [][2]int
	for _, m := range [][2]int{{r0, c0}, {c0, r0}, {p, 1}, {1, p}} {
		if !slices.Contains(topologies, m) {
			topologies = append(topologies, m)
		}
	}
	for _, gspec := range table1Graphs {
		perRank := cfg.scaleCount(gspec.perRank)
		n := perRank * p
		k := fitK(n, gspec.k)
		g, err := bgl.Generate(n, k, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for _, topo := range topologies {
			cl, dg, err := distribute(g, bgl.ClusterConfig{R: topo[0], C: topo[1]})
			if err != nil {
				return nil, err
			}
			var exec, commT float64
			var expandLen, foldLen float64
			for _, pr := range searchPairs(g, cfg.Searches, cfg.Seed+int64(topo[0])) {
				res, err := cl.Search(dg, pr[0], pr[1])
				if err != nil {
					return nil, err
				}
				exec += res.SimTime
				commT += res.SimComm
				expandLen += res.AvgExpandWordsPerLevel(p)
				foldLen += res.AvgFoldWordsPerLevel(p)
			}
			sc := float64(cfg.Searches)
			t.AddRow(
				seriesLabel(perRank, k), meshLabel(topo[0], topo[1]),
				exec/sc, commT/sc, expandLen/sc, foldLen/sc,
			)
		}
	}
	t.Note("P=%d; paper: 1D topologies pay far higher comm time; 2D wins for high degree;", p)
	t.Note("row-wise 1D (R x 1) can win at low degree via short expand messages (the paper's trade-off)")
	return t, nil
}

// RunFig7 reproduces Figure 7: the union-fold redundancy ratio
// (duplicates eliminated ÷ vertices received) over a weak-scaling
// sweep, for the k=10 and k=100 workloads. The paper reports up to
// ~80% savings for k=100, declining as P grows.
func RunFig7(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Figure 7 — union-fold redundancy ratio",
		Columns: []string{"series", "P", "n", "redundancy %"},
	}
	points := weakPoints(cfg.MaxP)
	// The paper's Fig. 7 x-axis starts at ~1000 processors; start at 16
	// so rings are non-trivial.
	var ps []int
	for _, p := range points {
		if p >= 16 {
			ps = append(ps, p)
		}
	}
	if len(ps) == 0 {
		ps = []int{points[len(points)-1]}
	}
	for _, s := range table1Graphs {
		perRank := cfg.scaleCount(s.perRank)
		for _, p := range ps {
			r, c := squareMesh(p)
			n := perRank * p
			k := fitK(n, s.k)
			g, err := bgl.Generate(n, k, cfg.Seed)
			if err != nil {
				return nil, err
			}
			cl, dg, err := distribute(g, bgl.ClusterConfig{R: r, C: c})
			if err != nil {
				return nil, err
			}
			// Full traversal with the union-fold; the sent-neighbors
			// cache stays on, as in the production configuration.
			res, err := cl.BFS(dg, g.LargestComponentVertex())
			if err != nil {
				return nil, err
			}
			t.AddRow(seriesLabel(perRank, k), p, n, res.RedundancyRatio())
		}
	}
	t.Note("paper: higher degree ⇒ more redundancy eliminated (up to ~80%%); ratio declines with P")
	return t, nil
}
