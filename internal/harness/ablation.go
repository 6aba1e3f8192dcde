package harness

import bgl "repro"

// ablationK is the average degree of the design ablations' workload.
const ablationK = 10

// ablationGraph generates the design ablations' common workload, the
// k=10 graph at the weak-scaling series' per-rank size, for the square
// mesh of the largest power of two P up to capP; it returns that mesh.
func ablationGraph(cfg Config, capP int) (*bgl.Graph, bgl.ClusterConfig, error) {
	p := cfg.pow2P(capP)
	r, c := squareMesh(p)
	n := cfg.scaleCount(100000/fig4aScaleDivisor) * p
	g, err := bgl.Generate(n, fitK(n, ablationK), cfg.Seed)
	return g, bgl.ClusterConfig{R: r, C: c}, err
}

// ablationWorkload distributes the ablation graph over its mesh of up
// to 64 ranks.
func ablationWorkload(cfg Config) (*bgl.Cluster, *bgl.DistGraph, error) {
	g, mesh, err := ablationGraph(cfg, 64)
	if err != nil {
		return nil, nil, err
	}
	return distribute(g, mesh)
}

// RunAblationMapping compares the Figure 1 plane mapping against plain
// row-major placement of ranks on the torus. The logical communication
// is identical; only hop counts — and therefore simulated
// communication time — change.
func RunAblationMapping(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Ablation — task mapping onto the torus (§3.2.1)",
		Columns: []string{"mapping", "exec(s)", "comm(s)", "avg hops/msg", "link MB (bytes x hops)", "max link MB"},
	}
	g, mesh, err := ablationGraph(cfg, 64)
	if err != nil {
		return nil, err
	}
	for _, m := range []struct {
		name    string
		mapping bgl.MappingKind
	}{{"figure-1 planes", bgl.MapPlanes}, {"row-major", bgl.MapRowMajor}} {
		mesh.Mapping = m.mapping
		cl, dg, err := distribute(g, mesh)
		if err != nil {
			return nil, err
		}
		res, err := cl.BFS(dg, g.LargestComponentVertex())
		if err != nil {
			return nil, err
		}
		t.AddRow(m.name, res.SimTime, res.SimComm,
			res.AvgHopsPerMessage(), float64(res.HopBytes)/1e6,
			float64(res.MaxLinkBytes)/1e6)
	}
	t.Note("expected: plane mapping lowers hop counts and the link traffic (bytes x hops) the")
	t.Note("search imposes; end-to-end time moves little because the model has no link contention")
	return t, nil
}

// RunAblationCollectives compares the fold implementations: direct
// all-to-all reduce-scatter, the two-phase union-fold, and the
// two-phase schedule without in-flight union.
func RunAblationCollectives(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Ablation — fold collective algorithm (§3.2.2)",
		Columns: []string{"fold", "exec(s)", "comm(s)", "fold vol", "dups eliminated"},
	}
	cl, dg, err := ablationWorkload(cfg)
	if err != nil {
		return nil, err
	}
	src := dg.Graph().LargestComponentVertex()
	for _, alg := range []bgl.FoldAlg{bgl.FoldDirect, bgl.FoldTwoPhase, bgl.FoldTwoPhaseNoUnion} {
		res, err := cl.BFS(dg, src, bgl.WithFold(alg))
		if err != nil {
			return nil, err
		}
		t.AddRow(alg.String(), res.SimTime, res.SimComm, res.TotalFoldWords, res.TotalDups)
	}
	t.Note("expected: union fold moves fewer words than the no-union ring; direct all-to-all")
	t.Note("has fewest messages at this scale but needs per-destination buffers ∝ k (§3.2)")
	return t, nil
}

// RunAblationSentCache compares the sent-neighbors cache (§2.4.3) on
// and off: with the cache a neighbor is sent to its owner at most once
// over the whole search.
func RunAblationSentCache(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Ablation — sent-neighbors cache (§2.4.3)",
		Columns: []string{"cache", "exec(s)", "fold vol", "dups eliminated"},
	}
	cl, dg, err := ablationWorkload(cfg)
	if err != nil {
		return nil, err
	}
	src := dg.Graph().LargestComponentVertex()
	for _, on := range []bool{true, false} {
		res, err := cl.BFS(dg, src, bgl.WithSentCache(on))
		if err != nil {
			return nil, err
		}
		label := "off"
		if on {
			label = "on"
		}
		t.AddRow(label, res.SimTime, res.TotalFoldWords, res.TotalDups)
	}
	t.Note("expected: cache removes re-sends of already-delivered neighbors, shrinking fold volume")
	t.Note("measured at the default scale: 21%% fewer fold words with the cache, but more simulated time (0.0350 s with, 0.0249 s without): the cache loses time on its own exhibit and stays because it is the paper's §2.4.3")
	return t, nil
}
