// Package bgl is a Go reproduction of "A Scalable Distributed Parallel
// Breadth-First Search Algorithm on BlueGene/L" (Yoo et al., SC 2005).
//
// It provides level-synchronized distributed BFS over Poisson random
// graphs with 1D (vertex) and 2D (edge) partitionings, uni- and
// bi-directional searches, the paper's BlueGene/L-optimized two-phase
// collectives (including the union-fold), and a simulated torus runtime
// that stands in for the 32,768-node machine: ranks are goroutines,
// collectives are hand-rolled from point-to-point messages, and a
// deterministic cost model reports simulated execution/communication
// times alongside real wall time.
//
// The public surface is partition-polymorphic: Distribute splits a
// graph under any of the paper's Table 1 partitionings (Part2D,
// Part1DRow, Part1DCol — see WithPartition), each a shape of the 2D
// mesh, and every search entry point (BFS, Search, BiSearch, Path,
// SSSP, MultiBFS) runs on any of them. One Option
// vocabulary serves every algorithm: WithWire and WithChunkWords
// configure the shared payload/codec machinery, while
// algorithm-specific options (WithDirection, WithDelta, ...) apply
// only to their family.
//
// Beyond the paper, searches can run with a direction policy
// (WithDirection): top-down, bottom-up, or direction-optimizing
// traversal that switches to a bitmap-exchanged bottom-up parent
// search on the large middle levels, plus an adaptive sparse/dense
// frontier representation and compressed wire encodings (WithWire)
// for the exchanged vertex sets. Weighted graphs (GenerateWeighted)
// additionally support distributed single-source shortest paths by
// Δ-stepping (Cluster.SSSP, WithDelta), validated against a serial
// Dijkstra oracle; and batches of up to 64 sources can traverse
// together in one bit-lane-parallel sweep sequence (Cluster.MultiBFS),
// sharing every set payload across the batch.
//
// Quick start:
//
//	g, _ := bgl.Generate(100000, 10, 42)
//	cl, _ := bgl.NewCluster(bgl.ClusterConfig{R: 4, C: 4})
//	dg, _ := cl.Distribute(g)                   // 2D edge partitioning (default)
//	res, _ := cl.BFS(dg, g.LargestComponentVertex(), bgl.WithWire(bgl.WireHybrid))
//	fmt.Println(res.Reached(), res.SimTime)
//
//	// The same entry points run on the 1D partitionings of Table 1:
//	dg1, _ := cl.Distribute(g, bgl.WithPartition(bgl.Part1DCol))
//	res1, _ := cl.BFS(dg1, g.LargestComponentVertex())
//
//	// Batched multi-source BFS: k path queries in one sweep sequence.
//	mres, _ := cl.MultiBFS(dg, []bgl.Vertex{3, 99, 1024})
//	fmt.Println(mres.LaneLevels[1][42]) // distance 99 -> 42
package bgl

import (
	"fmt"
	"io"

	"repro/internal/bfs"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sssp"
	"repro/internal/torus"
)

// Vertex is a global vertex id.
type Vertex = graph.Vertex

// Unreached marks vertices a search did not label.
const Unreached = graph.Unreached

// Result re-exports the search result type: levels, per-level message
// statistics, simulated times and the redundancy ratio.
type Result = bfs.Result

// LevelStats re-exports the per-level statistics record.
type LevelStats = bfs.LevelStats

// Graph is an undirected Poisson random graph (or any hand-built
// undirected graph) in CSR form.
type Graph struct {
	csr *graph.CSR
}

// Generate creates the paper's workload: a Poisson random graph with n
// vertices and expected average degree k, deterministic in seed.
func Generate(n int, k float64, seed int64) (*Graph, error) {
	g, err := graph.Generate(graph.Params{N: n, K: k, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &Graph{csr: g}, nil
}

// MaxDist marks vertices a shortest-path search did not reach.
const MaxDist = graph.MaxDist

// WeightDist re-exports the edge-weight distribution selector.
type WeightDist = graph.WeightDist

// Edge-weight distributions for GenerateWeighted.
const (
	WeightUniform     = graph.WeightUniform
	WeightExponential = graph.WeightExponential
	WeightUnit        = graph.WeightUnit
)

// WeightOption adjusts the weight assignment of GenerateWeighted.
type WeightOption func(*graph.WeightSpec)

// WithWeightDist selects the edge-weight distribution.
func WithWeightDist(d WeightDist) WeightOption {
	return func(s *graph.WeightSpec) { s.Dist = d }
}

// WithMaxWeight bounds every weight draw (default graph.DefaultMaxWeight).
func WithMaxWeight(w uint32) WeightOption {
	return func(s *graph.WeightSpec) { s.MaxWeight = w }
}

// GenerateWeighted creates the Poisson random graph of Generate with
// per-edge uint32 weights: identical topology for the same (n, k,
// seed), weights drawn by a deterministic symmetric hash of the edge
// endpoints (uniform in [1, max] by default; see WithWeightDist).
func GenerateWeighted(n int, k float64, seed int64, opts ...WeightOption) (*Graph, error) {
	spec := graph.WeightSpec{Dist: graph.WeightUniform, Seed: seed + 1}
	for _, fn := range opts {
		fn(&spec)
	}
	g, err := graph.GenerateWeighted(graph.Params{N: n, K: k, Seed: seed}, spec)
	if err != nil {
		return nil, err
	}
	return &Graph{csr: g}, nil
}

// FromWeightedEdges builds a weighted graph from an explicit
// undirected edge list and a parallel slice of positive weights.
func FromWeightedEdges(n int, edges [][2]Vertex, weights []uint32) (*Graph, error) {
	g, err := graph.FromWeightedEdges(n, edges, weights)
	if err != nil {
		return nil, err
	}
	return &Graph{csr: g}, nil
}

// FromEdges builds a graph from an explicit undirected edge list.
func FromEdges(n int, edges [][2]Vertex) (*Graph, error) {
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return nil, err
	}
	return &Graph{csr: g}, nil
}

// Load reads a plain-text edge list ("u v" per line, optional
// "# n <count>" header) as written by Save or cmd/graphgen -edges.
func Load(r io.Reader) (*Graph, error) {
	g, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return &Graph{csr: g}, nil
}

// Save writes the graph as a plain-text edge list with a vertex-count
// header; Load round-trips it.
func (g *Graph) Save(w io.Writer) error { return graph.WriteEdgeList(w, g.csr) }

// N returns the vertex count.
func (g *Graph) N() int { return g.csr.N }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int64 { return g.csr.NumEdges() }

// AvgDegree returns the measured average degree.
func (g *Graph) AvgDegree() float64 { return g.csr.AvgDegree() }

// Degree returns the degree of v.
func (g *Graph) Degree(v Vertex) int { return g.csr.Degree(v) }

// Neighbors returns v's adjacency list (aliased, do not modify).
func (g *Graph) Neighbors(v Vertex) []Vertex { return g.csr.Neighbors(v) }

// Weighted reports whether the graph carries explicit edge weights.
func (g *Graph) Weighted() bool { return g.csr.Weighted() }

// EdgeWeightRange returns the smallest and largest edge weight (1, 1
// for unweighted graphs) — the anchors of the useful Δ range.
func (g *Graph) EdgeWeightRange() (min, max uint32) {
	return g.csr.MinEdgeWeight(), g.csr.MaxEdgeWeight()
}

// SerialBFS runs the single-machine reference BFS.
func (g *Graph) SerialBFS(src Vertex) []int32 { return graph.BFS(g.csr, src) }

// SerialDijkstra runs the single-machine shortest-path oracle every
// distributed Δ-stepping run is validated against (unit weights when
// the graph is unweighted).
func (g *Graph) SerialDijkstra(src Vertex) []uint32 { return graph.Dijkstra(g.csr, src) }

// SerialDistance returns the exact s→t distance (Unreached if none).
func (g *Graph) SerialDistance(s, t Vertex) int32 { return graph.Distance(g.csr, s, t) }

// LargestComponentVertex returns a vertex in the largest component.
func (g *Graph) LargestComponentVertex() Vertex { return graph.LargestComponentVertex(g.csr) }

// Relabel returns a copy of the graph with vertex ids permuted
// uniformly at random (deterministic in seed) and the permutation
// perm[old] = new. The blocked partitionings assume ids spread load
// evenly over contiguous blocks; relabeling restores that for inputs
// whose ids carry locality.
func (g *Graph) Relabel(seed int64) (*Graph, []Vertex) {
	rg, perm := graph.Relabel(g.csr, seed)
	return &Graph{csr: rg}, perm
}

// visit streams the graph's edges for the partition builders. Walking
// an in-memory CSR cannot fail, so — unlike the IO-backed edge sources
// the builders also accept — visit has no error to report and returns
// none; visitSource adapts it to the builders' fallible-source shape
// without inventing an error path that silently never fires.
func (g *Graph) visit(fn func(u, v Vertex)) {
	for v := 0; v < g.csr.N; v++ {
		for _, u := range g.csr.Neighbors(Vertex(v)) {
			if Vertex(v) < u {
				fn(Vertex(v), u)
			}
		}
	}
}

// visitSource adapts visit to the partition builders' edge-source
// contract (which must admit failing sources such as file readers).
func (g *Graph) visitSource(fn func(u, v Vertex)) error {
	g.visit(fn)
	return nil
}

// MappingKind selects how logical ranks are placed on the torus.
type MappingKind int

const (
	// MapPlanes is the paper's Figure 1 mapping: the logical R x C
	// array is tiled onto torus planes so processor-column (expand)
	// traffic crosses adjacent planes. Falls back to row-major when the
	// array does not tile the torus.
	MapPlanes MappingKind = iota
	// MapRowMajor places ranks in plain row-major torus order.
	MapRowMajor
)

// ClusterConfig describes the simulated machine.
type ClusterConfig struct {
	// R, C are the logical processor mesh dimensions; P = R*C ranks.
	// C = 1 or R = 1 give the two 1D partitionings of Table 1.
	R, C int
	// Mapping selects rank placement (default MapPlanes with fallback).
	Mapping MappingKind
	// ClusterModel switches the cost model from the BlueGene/L preset
	// to the Quadrics-cluster preset (the paper's MCR comparison).
	ClusterModel bool
}

// Cluster is a simulated machine: a world of R*C goroutine ranks on a
// torus with a cost model.
type Cluster struct {
	cfg   ClusterConfig
	world *comm.World
}

// NewCluster builds the simulated machine.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.R <= 0 || cfg.C <= 0 {
		return nil, fmt.Errorf("bgl: mesh must be positive, got %dx%d", cfg.R, cfg.C)
	}
	p := cfg.R * cfg.C
	tor := torus.FitTorus(p)
	var mapping *torus.Mapping
	var err error
	switch cfg.Mapping {
	case MapPlanes:
		mapping, err = torus.Planes(tor, cfg.R, cfg.C)
		if err != nil {
			// The logical array does not tile this torus; fall back.
			mapping, err = torus.RowMajor(tor, p)
		}
	case MapRowMajor:
		mapping, err = torus.RowMajor(tor, p)
	default:
		return nil, fmt.Errorf("bgl: unknown mapping %d", cfg.Mapping)
	}
	if err != nil {
		return nil, err
	}
	model := torus.PresetBlueGeneL()
	if cfg.ClusterModel {
		model = torus.PresetCluster()
	}
	w, err := comm.NewWorld(comm.Config{P: p, Mapping: mapping, Model: model})
	if err != nil {
		return nil, err
	}
	return &Cluster{cfg: cfg, world: w}, nil
}

// P returns the rank count.
func (c *Cluster) P() int { return c.cfg.R * c.cfg.C }

// Mesh returns the logical mesh dimensions.
func (c *Cluster) Mesh() (r, cc int) { return c.cfg.R, c.cfg.C }

// Partition selects how Distribute splits a graph over the cluster's
// P = R*C ranks — the head-to-head axis of the paper's Table 1. Each is
// a shape of the 2D mesh (R x C, P x 1 or 1 x P) run by the same
// engines, so the choice is purely a data-layout decision.
type Partition int

const (
	// Part2D is the paper's 2D edge partitioning (§2.2) over the full
	// R x C mesh: the adjacency matrix is split into block rows and
	// columns, expand runs down processor columns and fold across
	// processor rows. The default.
	Part2D Partition = iota
	// Part1DRow is the row-wise 1D partitioning of Table 1: the 2D
	// layout with the mesh collapsed to P x 1, so each rank stores a
	// block of matrix rows for every vertex and levels pay a
	// full-column expand.
	Part1DRow
	// Part1DCol is the conventional column-wise 1D vertex partitioning
	// of §2.1: the 2D layout with the mesh collapsed to 1 x P, so each
	// rank owns a contiguous vertex block with full edge lists (whole
	// matrix columns) and each level is a single fold over all P ranks.
	// With one rank per processor column the engines skip the column
	// phase, so a level is Algorithm 1's and is charged as such.
	Part1DCol
)

func (p Partition) String() string {
	switch p {
	case Part2D:
		return "2d"
	case Part1DRow:
		return "1drow"
	case Part1DCol:
		return "1dcol"
	default:
		return fmt.Sprintf("Partition(%d)", int(p))
	}
}

// distributeConfig collects Distribute's options.
type distributeConfig struct {
	part Partition
}

// DistributeOption adjusts how Distribute lays the graph out.
type DistributeOption func(*distributeConfig)

// WithPartition selects the partitioning (default Part2D).
func WithPartition(p Partition) DistributeOption {
	return func(c *distributeConfig) { c.part = p }
}

// DistGraph is a graph distributed over a cluster's ranks. Every
// partitioning is a mesh shape of the 2D layout, so one set of stores
// serves every search entry point.
type DistGraph struct {
	graph  *Graph
	part   Partition
	stores []*partition.Store2D
}

// Distribute partitions g over the cluster's mesh under the selected
// partitioning (Part2D by default; see WithPartition). Weighted graphs
// distribute their edge weights alongside the partial edge lists. The
// centralized loader stands in for the original system's parallel file
// I/O.
func (c *Cluster) Distribute(g *Graph, opts ...DistributeOption) (*DistGraph, error) {
	cfg := distributeConfig{part: Part2D}
	for _, fn := range opts {
		fn(&cfg)
	}
	p := c.P()
	if g.N() < p {
		return nil, fmt.Errorf(
			"bgl: mesh %dx%d has more ranks (%d) than the graph has vertices (%d); no %s layout can give every rank work — shrink the mesh or grow the graph",
			c.cfg.R, c.cfg.C, p, g.N(), cfg.part)
	}
	r, cc := c.cfg.R, c.cfg.C
	switch cfg.part {
	case Part2D:
	case Part1DRow:
		r, cc = p, 1
	case Part1DCol:
		r, cc = 1, p
	default:
		return nil, fmt.Errorf("bgl: unknown partitioning %s", cfg.part)
	}
	l, err := partition.NewLayout2D(g.N(), r, cc)
	if err != nil {
		return nil, err
	}
	var stores []*partition.Store2D
	if g.csr.Weighted() {
		stores, err = partition.Build2DWeighted(l, g.csr.VisitWeightedEdges)
	} else {
		stores, err = partition.Build2D(l, g.visitSource)
	}
	if err != nil {
		return nil, err
	}
	return &DistGraph{graph: g, part: cfg.part, stores: stores}, nil
}

// Graph returns the underlying graph.
func (dg *DistGraph) Graph() *Graph { return dg.graph }

// Partition returns the partitioning the graph was distributed under.
func (dg *DistGraph) Partition() Partition { return dg.part }

// MemoryStats re-exports the per-rank storage summary of §2.4.1.
type MemoryStats = partition.MemoryStats

// Memory returns per-rank storage statistics, demonstrating the
// §2.4.1 claim that indexed state stays O(n/P) rather than O(n/C).
func (dg *DistGraph) Memory() []MemoryStats {
	out := make([]MemoryStats, len(dg.stores))
	for i, st := range dg.stores {
		out[i] = st.Memory()
	}
	return out
}

// SSSPResult re-exports the Δ-stepping result: per-vertex distances,
// per-epoch statistics, and simulated times.
type SSSPResult = sssp.Result

// EpochStats re-exports the per-epoch Δ-stepping statistics record.
type EpochStats = sssp.EpochStats

// DeltaInf selects the single-bucket (Bellman-Ford) degenerate of
// Δ-stepping.
const DeltaInf = sssp.DeltaInf

// SSSP runs distributed single-source shortest paths by Δ-stepping
// from source over the DistGraph's partitioning. Unweighted graphs run
// with unit weights (distances equal BFS levels). Δ defaults to
// max(1, maxWeight/avgDegree); tune it with WithDelta.
func (c *Cluster) SSSP(dg *DistGraph, source Vertex, opts ...Option) (*SSSPResult, error) {
	cfg := newSearchConfig(source)
	cfg.apply(opts)
	return sssp.Run2D(c.world, dg.stores, cfg.sssp)
}

// BFS runs a full distributed traversal from source.
func (c *Cluster) BFS(dg *DistGraph, source Vertex, opts ...Option) (*Result, error) {
	cfg := newSearchConfig(source)
	cfg.apply(opts)
	return bfs.Run2D(c.world, dg.stores, cfg.bfs)
}

// Search runs a uni-directional s→t search that stops when t is
// labeled, as in the paper's timing experiments.
func (c *Cluster) Search(dg *DistGraph, s, t Vertex, opts ...Option) (*Result, error) {
	cfg := newSearchConfig(s)
	cfg.bfs.Target, cfg.bfs.HasTarget = t, true
	cfg.apply(opts)
	return bfs.Run2D(c.world, dg.stores, cfg.bfs)
}

// BiSearch runs the bi-directional s→t search of §2.3 (the paper
// notes either partitioning can host it).
func (c *Cluster) BiSearch(dg *DistGraph, s, t Vertex, opts ...Option) (*Result, error) {
	cfg := newSearchConfig(s)
	cfg.bfs.Target, cfg.bfs.HasTarget = t, true
	cfg.apply(opts)
	return bfs.RunBidirectional2D(c.world, dg.stores, cfg.bfs)
}

// Path runs a distributed BFS from s and reconstructs one shortest
// path s→t from the assembled levels — the paper's §1 semantic-graph
// use case ("the nature of the relationship ... can be determined by
// the shortest path"). Returns the path [s, ..., t] and the search
// Result, or an error if t is unreachable.
func (c *Cluster) Path(dg *DistGraph, s, t Vertex, opts ...Option) ([]Vertex, *Result, error) {
	cfg := newSearchConfig(s)
	cfg.bfs.Target, cfg.bfs.HasTarget = t, true
	cfg.apply(opts)
	res, err := bfs.Run2D(c.world, dg.stores, cfg.bfs)
	if err != nil {
		// A canceled run hands back its partial Result next to the
		// *Canceled error; other failures have no Result.
		return nil, res, err
	}
	if !res.Found {
		return nil, res, fmt.Errorf("bgl: vertex %d not reachable from %d", t, s)
	}
	path, err := graph.PathFromLevels(dg.graph.csr, res.Levels, s, t)
	if err != nil {
		return nil, res, err
	}
	return path, res, nil
}

// MultiResult re-exports the batched multi-source BFS result: per-lane
// level arrays, nearest-source Levels, and per-sweep statistics.
type MultiResult = bfs.MultiResult

// MaxLanes is the multi-source batch capacity (one bit-lane per
// source).
const MaxLanes = bfs.MaxLanes

// MultiBFS runs a batched multi-source BFS: up to MaxLanes sources
// traverse together, one bit-lane per source, sharing one wire payload
// per hop (the lane-OR frontier rides the configured wire codec with
// the lane masks alongside). Each lane's levels are identical to an
// independent BFS from that source, but the batch moves far fewer
// total words than len(sources) separate runs — the §1 semantic-graph
// workload of answering many path queries at once.
//
// Batched sweeps are always top-down with the targeted expand (a lane
// mask must accompany every travelling vertex, which the bottom-up
// bitmap exchange and the sent-neighbors cache cannot express), so of
// the BFS-family options only WithMaxLevels applies; WithDirection,
// WithExpand, WithFold and WithSentCache are ignored. The shared
// options (WithWire, WithChunkWords) apply as usual.
func (c *Cluster) MultiBFS(dg *DistGraph, sources []Vertex, opts ...Option) (*MultiResult, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("bgl: MultiBFS needs at least one source")
	}
	cfg := newSearchConfig(sources[0])
	cfg.apply(opts)
	return bfs.MultiRun2D(c.world, dg.stores, sources, cfg.bfs)
}
