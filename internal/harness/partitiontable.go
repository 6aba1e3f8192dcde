package harness

import (
	"repro/internal/bfs"
	"repro/internal/graph"
)

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
	p := minInt(16, cfg.MaxP)
	for p&(p-1) != 0 {
		p--
	}
	r0, c0 := squareMesh(p)
	graphs := []struct {
		perRank int
		k       float64
	}{
		{100000 / fig4aScaleDivisor, 10},
		{10000 / fig4aScaleDivisor, 100},
	}
	for _, gspec := range graphs {
		perRank := cfg.scaleCount(gspec.perRank)
		n := perRank * p
		k := fitK(n, gspec.k)
		label := seriesLabel(perRank, k)

		// Every partitioning is a mesh shape of the one engine.
		for _, spec := range []struct {
			part string
			r, c int
		}{
			{"2d", r0, c0},
			{"1drow", p, 1},
			{"1dcol", 1, p},
		} {
			w, err := buildWorkload(n, k, cfg.Seed, spec.r, spec.c, false)
			if err != nil {
				return nil, err
			}
			src := graph.LargestComponentVertex(w.g)
			res, err := bfs.Run2D(w.cl.world, w.stores, bfs.DefaultOptions(src))
			if err != nil {
				return nil, err
			}
			t.AddRow(label, spec.part, meshLabel(spec.r, spec.c),
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
