package harness

import bgl "repro"

// wireModes lists the frontier wire encodings in ablation order.
var wireModes = []bgl.WireMode{bgl.WireSparse, bgl.WireDense, bgl.WireAuto, bgl.WireHybrid}

// RunAblationWire compares the frontier wire encodings level by level
// on the k=10 Poisson workload over both partitionings (the square 2D
// mesh and the degenerate 1-row 1D mesh). Each level row reports the
// global frontier occupancy entering the level and the words every
// encoding moved, with the hybrid codec's gain over auto: the raw-list
// and whole-bitmap forms are each optimal only at the occupancy
// extremes, and the chunked containers win the wide mid-occupancy band
// in between — the regime the contiguous-block partitioning's
// clustered payloads live in.
func RunAblationWire(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title: "Ablation — frontier wire encoding (sparse/dense/auto/hybrid), both partitionings",
		Columns: []string{"mesh", "level", "frontier occ %",
			"words sparse", "words dense", "words auto", "words hybrid", "auto/hybrid"},
	}
	g, sq, err := ablationGraph(cfg, 64)
	if err != nil {
		return nil, err
	}
	n, p := g.N(), sq.R*sq.C
	k := fitK(n, ablationK)
	src := g.LargestComponentVertex()
	for _, mesh := range [][2]int{{sq.R, sq.C}, {1, p}} {
		cl, dg, err := distribute(g, bgl.ClusterConfig{R: mesh[0], C: mesh[1]})
		if err != nil {
			return nil, err
		}
		results := make([]*bgl.Result, len(wireModes))
		for i, mode := range wireModes {
			res, err := cl.BFS(dg, src, bgl.WithWire(mode))
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		label := meshLabel(mesh[0], mesh[1])
		levels := len(results[0].PerLevel)
		totals := make([]int64, len(wireModes))
		for l := 0; l < levels; l++ {
			words := make([]int64, len(wireModes))
			for i, res := range results {
				if l < len(res.PerLevel) {
					words[i] = res.PerLevel[l].ExpandWords + res.PerLevel[l].FoldWords
				}
				totals[i] += words[i]
			}
			occ := 100 * float64(results[0].PerLevel[l].Frontier) / float64(n)
			t.AddRow(label, l, occ, words[0], words[1], words[2], words[3], ratio(float64(words[2]), float64(words[3])))
		}
		t.AddRow(label, "total", "", totals[0], totals[1], totals[2], totals[3], ratio(float64(totals[2]), float64(totals[3])))
	}
	t.Note("n=%d k=%g: auto picks min(sparse, dense) per payload; hybrid re-chunks each payload", n, k)
	t.Note("into delta-varint/bitmap/run containers and must never exceed auto — the auto/hybrid")
	t.Note("column is its compression factor, largest on the mid-occupancy middle levels")
	return t, nil
}
