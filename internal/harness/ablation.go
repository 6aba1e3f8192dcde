package harness

import (
	"repro/internal/bfs"
	"repro/internal/graph"
)

// ablationWorkload builds the common graph for the design ablations:
// a mid-size square mesh with the k=10 workload.
func ablationWorkload(cfg Config, rowMajor bool) (*workload, error) {
	p := minInt(64, cfg.MaxP)
	for p&(p-1) != 0 {
		p--
	}
	r, c := squareMesh(p)
	n := cfg.scaleCount(100000/fig4aScaleDivisor) * p
	return buildWorkload(n, fitK(n, 10), cfg.Seed, r, c, rowMajor)
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
	for _, m := range []struct {
		name     string
		rowMajor bool
	}{{"figure-1 planes", false}, {"row-major", true}} {
		w, err := ablationWorkload(cfg, m.rowMajor)
		if err != nil {
			return nil, err
		}
		src := graph.LargestComponentVertex(w.g)
		res, err := bfs.Run2D(w.cl.world, w.stores, bfs.DefaultOptions(src))
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
	w, err := ablationWorkload(cfg, false)
	if err != nil {
		return nil, err
	}
	src := graph.LargestComponentVertex(w.g)
	for _, alg := range []bfs.FoldAlg{bfs.FoldDirect, bfs.FoldTwoPhase, bfs.FoldTwoPhaseNoUnion} {
		opts := bfs.DefaultOptions(src)
		opts.Fold = alg
		res, err := bfs.Run2D(w.cl.world, w.stores, opts)
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
	w, err := ablationWorkload(cfg, false)
	if err != nil {
		return nil, err
	}
	src := graph.LargestComponentVertex(w.g)
	for _, on := range []bool{true, false} {
		opts := bfs.DefaultOptions(src)
		opts.SentCache = on
		res, err := bfs.Run2D(w.cl.world, w.stores, opts)
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
