package harness

import bgl "repro"

// RunAblationPartition is the Table 1 head-to-head through the unified
// partition-aware search layer: the same full traversal on the same
// workload under the 2D edge partitioning (square-ish mesh), the
// row-wise 1D partitioning (P x 1 mesh), and the conventional
// column-wise 1D partitioning (1 x P mesh, Algorithm 1) — the
// comparison the public API exposes via Distribute(g, WithPartition).
// Reported per partitioning: expand and fold words, total words, and
// simulated execution/communication time, for a low-degree and a
// high-degree graph (the paper's trade-off: 1D's single fold wins at
// low degree, 2D's column-bounded expand wins as degree grows).
func RunAblationPartition(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title: "Ablation — partitionings head to head (Table 1 through the unified API)",
		Columns: []string{"graph", "partition", "mesh",
			"expand words", "fold words", "total words", "exec(s)", "comm(s)"},
	}
	p := cfg.pow2P(16)
	r, c := squareMesh(p)
	cl, err := bgl.NewCluster(bgl.ClusterConfig{R: r, C: c})
	if err != nil {
		return nil, err
	}
	for _, gspec := range table1Graphs {
		perRank := cfg.scaleCount(gspec.perRank)
		n := perRank * p
		k := fitK(n, gspec.k)
		g, err := bgl.Generate(n, k, cfg.Seed)
		if err != nil {
			return nil, err
		}
		// Every partitioning is a mesh shape of the one cluster.
		for _, spec := range []struct {
			part bgl.Partition
			r, c int
		}{
			{bgl.Part2D, r, c},
			{bgl.Part1DRow, p, 1},
			{bgl.Part1DCol, 1, p},
		} {
			dg, err := cl.Distribute(g, bgl.WithPartition(spec.part))
			if err != nil {
				return nil, err
			}
			res, err := cl.BFS(dg, g.LargestComponentVertex())
			if err != nil {
				return nil, err
			}
			t.AddRow(seriesLabel(perRank, k), spec.part.String(), meshLabel(spec.r, spec.c),
				res.TotalExpandWords, res.TotalFoldWords,
				res.TotalExpandWords+res.TotalFoldWords,
				res.SimTime, res.SimComm)
		}
	}
	t.Note("P=%d; all three partitionings reachable from the public API:", p)
	t.Note("Distribute(g, WithPartition(Part2D|Part1DRow|Part1DCol)); bfsrun -part 2d|1drow|1dcol")
	t.Note("paper: 1D pays one big fold (no expand); 2D splits volume and wins as degree grows")
	return t, nil
}
