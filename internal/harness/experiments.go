package harness

import (
	"fmt"
	"math"
	"math/rand"

	bgl "repro"
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

// distribute lays g out under the 2D partitioning over a fresh cluster
// of the given shape.
func distribute(g *bgl.Graph, mesh bgl.ClusterConfig) (*bgl.Cluster, *bgl.DistGraph, error) {
	cl, err := bgl.NewCluster(mesh)
	if err != nil {
		return nil, nil, err
	}
	dg, err := cl.Distribute(g)
	return cl, dg, err
}

// searchPairs picks deterministic source/target pairs inside the
// largest component, spread across the level structure so path lengths
// vary the way random pairs on BG/L did.
func searchPairs(g *bgl.Graph, count int, seed int64) [][2]bgl.Vertex {
	levels := g.SerialBFS(g.LargestComponentVertex())
	var reachable []bgl.Vertex
	for v, l := range levels {
		if l != bgl.Unreached {
			reachable = append(reachable, bgl.Vertex(v))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]bgl.Vertex, 0, count)
	for len(pairs) < count {
		s := reachable[rng.Intn(len(reachable))]
		t := reachable[rng.Intn(len(reachable))]
		if s != t {
			pairs = append(pairs, [2]bgl.Vertex{s, t})
		}
	}
	return pairs
}

// targetAtDepth returns a vertex at the given BFS depth from src, or
// false if none exists.
func targetAtDepth(levels []int32, depth int32) (bgl.Vertex, bool) {
	for v, l := range levels {
		if l == depth {
			return bgl.Vertex(v), true
		}
	}
	return 0, false
}

// meanSearch runs an s→t search for each pair and averages simulated
// execution and communication times.
func meanSearch(cl *bgl.Cluster, dg *bgl.DistGraph, pairs [][2]bgl.Vertex) (exec, comm float64, err error) {
	for _, p := range pairs {
		res, e := cl.Search(dg, p[0], p[1])
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

// pow2P caps a rank count at MaxP and rounds it down to a power of
// two, so every mesh shape an exhibit asks of it factors.
func (c Config) pow2P(want int) int {
	p := min(want, c.MaxP)
	for p&(p-1) != 0 {
		p--
	}
	return p
}
