package harness

import (
	"fmt"

	bgl "repro"
)

// RunAblationDelta sweeps the Δ-stepping bucket width across the
// weighted Poisson workload, from the Dijkstra-like extreme (Δ = min
// weight: many buckets, no speculation) through interior widths to
// the Bellman-Ford degenerate (Δ = ∞: one bucket, maximal
// re-relaxation). The classic Δ-stepping trade — epochs shrink while
// re-settles grow — puts the best simulated execution time at an
// interior Δ that beats both extremes.
func RunAblationDelta(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title: "Ablation — Δ-stepping bucket width on the weighted Poisson workload",
		Columns: []string{"delta", "buckets", "epochs", "relaxations", "re-settles",
			"words", "exec(s)", "comm(s)"},
	}
	// The n=100k k=10 Poisson graph (scaled by Config) with uniform
	// weights, distributed weight-aware over a square mesh.
	p := cfg.pow2P(16)
	r, c := squareMesh(p)
	n := cfg.scaleCount(100000/16) * p
	g, err := bgl.GenerateWeighted(n, fitK(n, 10), cfg.Seed, bgl.WithMaxWeight(256))
	if err != nil {
		return nil, err
	}
	cl, dg, err := distribute(g, bgl.ClusterConfig{R: r, C: c})
	if err != nil {
		return nil, err
	}
	src := g.LargestComponentVertex()
	minW, maxW := g.EdgeWeightRange()
	type point struct {
		label string
		delta uint32
	}
	points := []point{{fmt.Sprintf("%d (min w, dijkstra-like)", minW), minW}}
	for _, d := range []uint32{maxW / 32, maxW / 8, maxW / 2, 2 * maxW} {
		if d > minW {
			points = append(points, point{fmt.Sprint(d), d})
		}
	}
	points = append(points, point{"auto", 0}, point{"inf (bellman-ford)", bgl.DeltaInf})
	for _, pt := range points {
		res, err := cl.SSSP(dg, src, bgl.WithDelta(pt.delta))
		if err != nil {
			return nil, err
		}
		label := pt.label
		if pt.delta == 0 {
			label = fmt.Sprintf("auto (%d)", res.Delta)
		}
		t.AddRow(label, res.BucketsDrained, res.Epochs, res.TotalRelaxations,
			res.TotalReSettles, res.TotalWords(), res.SimTime, res.SimComm)
	}
	t.Note("expected: small Δ pays many near-empty epochs (latency-bound), huge Δ re-relaxes")
	t.Note("speculatively (volume-bound); an interior Δ beats both degenerate extremes in exec(s)")
	return t, nil
}
