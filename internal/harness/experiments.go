package harness

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/bfs"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/torus"
)

// Config scales and seeds an experiment run. The paper ran on up to
// 32,768 BlueGene/L nodes with 100,000 vertices per node; Scale
// multiplies the per-rank vertex counts and MaxP caps the rank counts
// so every exhibit reproduces on one machine.
type Config struct {
	Scale    float64 // per-rank problem-size multiplier (default 1)
	MaxP     int     // cap on simulated rank count (default 256)
	Seed     int64   // workload seed (default 1)
	Searches int     // s→t searches averaged per data point (default 3)
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.MaxP <= 0 {
		c.MaxP = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Searches <= 0 {
		c.Searches = 3
	}
	return c
}

// scaleCount applies Scale to a per-rank vertex count, keeping at
// least 64 vertices per rank.
func (c Config) scaleCount(base int) int {
	v := int(float64(base) * c.Scale)
	if v < 64 {
		v = 64
	}
	return v
}

// Experiment is one reproducible exhibit from the paper.
type Experiment struct {
	ID    string
	Title string
	Paper string // which table/figure of the paper this regenerates
	Run   func(Config) (*Table, error)
}

// All lists every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"fig4a", "Weak scaling: mean search time and communication time", "Figure 4a", RunFig4a},
		{"fig4b", "Message volume vs search path length", "Figure 4b", RunFig4b},
		{"fig4c", "Bi-directional vs uni-directional weak scaling", "Figure 4c", RunFig4c},
		{"fig5", "Strong scaling speedup", "Figure 5", RunFig5},
		{"table1", "Processor-topology comparison (2D vs 1D)", "Table 1", RunTable1},
		{"fig6a", "Per-level message volume, 1D vs 2D, k=10 and k=50", "Figure 6a", RunFig6a},
		{"fig6b", "1D/2D crossover degree", "Figure 6b", RunFig6b},
		{"fig7", "Union-fold redundancy ratio", "Figure 7", RunFig7},
		{"memscale", "Per-rank memory is O(n/P), not O(n/C)", "§2.4.1 claim", RunMemScale},
		{"ablation-mapping", "Figure-1 plane mapping vs row-major placement", "design ablation (§3.2.1)", RunAblationMapping},
		{"ablation-collective", "Fold collective algorithms", "design ablation (§3.2.2)", RunAblationCollectives},
		{"ablation-sentcache", "Sent-neighbors cache on/off", "design ablation (§2.4.3)", RunAblationSentCache},
		{"ablation-direction", "Top-down vs direction-optimizing traversal, level by level", "design ablation (beyond the paper)", RunAblationDirection},
		{"ablation-wire", "Frontier wire encodings (sparse/dense/auto/hybrid) across occupancies", "design ablation (beyond the paper)", RunAblationWire},
		{"ablation-delta", "Δ-stepping SSSP bucket-width sweep on the weighted Poisson workload", "design ablation (beyond the paper)", RunAblationDelta},
		{"ablation-partition", "2D vs 1D-row vs 1D-col partitionings through the unified search API", "Table 1 reproduction", RunAblationPartition},
		{"ablation-overlap", "Synchronous vs overlapped (async) exchange schedule, level by level", "design ablation (beyond the paper)", RunAblationOverlap},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}

// cluster is a mesh with its simulated world on a fitted torus, mapped
// with the Figure 1 planes layout when possible.
type cluster struct {
	r, c  int
	world *comm.World
}

func newCluster(r, c int, rowMajor bool, model torus.CostModel) (*cluster, error) {
	mapping, err := torus.MeshMapping(r, c, rowMajor)
	if err != nil {
		return nil, err
	}
	w, err := comm.NewWorld(comm.Config{P: r * c, Mapping: mapping, Model: model})
	if err != nil {
		return nil, err
	}
	return &cluster{r: r, c: c, world: w}, nil
}

// workload is a generated graph distributed over a mesh.
type workload struct {
	g      *graph.CSR
	layout *partition.Layout2D
	stores []*partition.Store2D
	cl     *cluster
}

func buildWorkload(n int, k float64, seed int64, r, c int, rowMajor bool) (*workload, error) {
	if k > float64(n-1) {
		return nil, fmt.Errorf("harness: degree %g infeasible for n=%d", k, n)
	}
	params := graph.Params{N: n, K: k, Seed: seed}
	g, err := graph.Generate(params)
	if err != nil {
		return nil, err
	}
	layout, err := partition.NewLayout2D(n, r, c)
	if err != nil {
		return nil, err
	}
	stores, err := partition.Build2D(layout, func(fn func(u, v graph.Vertex)) error {
		return params.VisitEdges(fn)
	})
	if err != nil {
		return nil, err
	}
	cl, err := newCluster(r, c, rowMajor, torus.PresetBlueGeneL())
	if err != nil {
		return nil, err
	}
	return &workload{g: g, layout: layout, stores: stores, cl: cl}, nil
}

// searchPairs picks deterministic source/target pairs inside the
// largest component, spread across the level structure so path lengths
// vary the way random pairs on BG/L did.
func (w *workload) searchPairs(count int, seed int64) [][2]graph.Vertex {
	src := graph.LargestComponentVertex(w.g)
	levels := graph.BFS(w.g, src)
	var reachable []graph.Vertex
	for v, l := range levels {
		if l != graph.Unreached {
			reachable = append(reachable, graph.Vertex(v))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]graph.Vertex, 0, count)
	for len(pairs) < count {
		s := reachable[rng.Intn(len(reachable))]
		t := reachable[rng.Intn(len(reachable))]
		if s != t {
			pairs = append(pairs, [2]graph.Vertex{s, t})
		}
	}
	return pairs
}

// targetAtDepth returns a vertex at the given BFS depth from src, or
// false if none exists.
func targetAtDepth(levels []int32, depth int32) (graph.Vertex, bool) {
	for v, l := range levels {
		if l == depth {
			return graph.Vertex(v), true
		}
	}
	return 0, false
}

// meanSearch runs the given pairs through fn and averages simulated
// execution and communication times.
func meanSearch(w *workload, pairs [][2]graph.Vertex, run func(s, t graph.Vertex) (*bfs.Result, error)) (exec, comm float64, err error) {
	for _, p := range pairs {
		res, e := run(p[0], p[1])
		if e != nil {
			return 0, 0, e
		}
		exec += res.SimTime
		comm += res.SimComm
	}
	n := float64(len(pairs))
	return exec / n, comm / n, nil
}

// weakPoints returns the rank counts for weak-scaling sweeps: powers
// of 4 up to MaxP (the paper sweeps 1 → 32768).
func weakPoints(maxP int) []int {
	var ps []int
	for p := 1; p <= maxP; p *= 4 {
		ps = append(ps, p)
	}
	return ps
}

// squareMesh gives the most square factorization (for weak scaling the
// paper uses square-ish meshes).
func squareMesh(p int) (int, int) {
	best := 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			best = d
		}
	}
	return best, p / best
}

// fitK clamps the requested average degree to what a graph of n
// vertices supports.
func fitK(n int, k float64) float64 {
	return math.Min(k, float64(n-1))
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func fmtInt(v int) string { return strconv.Itoa(v) }

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// fmtSscan is a test seam around fmt.Sscan for parsing rendered cells.
func fmtSscan(s string, v *float64) (int, error) { return fmt.Sscan(s, v) }
