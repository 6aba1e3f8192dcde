package main

import (
	bgl "repro"
)

type opKind int

const (
	opBFS opKind = iota
	opSSSP
	opMulti
	opService
)

// workload is one named set of inputs. An operation is one public
// call: one traversal on the engine workloads, one HTTP query on the
// service workloads. Op i of a run is op i%cycle of the list the seed
// generates, and a run always ends on a whole cycle, so every per-op
// mean — simulated seconds and wire words above all — is taken over
// the same multiset of operations on every commit.
type workload struct {
	name, why string
	kind      opKind
	n         int  // vertices; average degree is always 10
	weighted  bool // GenerateWeighted with weights in [1, 256]
	r, c      int  // mesh
	part      bgl.Partition
	opts      []bgl.Option
	sources   int // seeded distinct sources in the largest component
	cycle     int
	clients   int  // closed-loop clients pulling ops off one shared list
	mix       bool // service: 60% bfs / 20% path / 20% sssp instead of bfs only
}

// Multi-source sweeps: op i carries multiLanes sources starting at
// source multiStride*i, so consecutive sweeps share most of a batch the
// way a batcher's consecutive windows do.
const (
	multiLanes  = 64
	multiStride = 8
)

// ssspDelta is the bucket width every Δ-stepping run uses: what the
// engines' own heuristic, maxWeight / avgDegree, picks for weights up
// to 256 and degree 10. It is pinned because the heuristic divides by
// the measured degree as an integer, so a graph with a few edges under
// 10 per vertex gets Δ = 28 and 6% more allocations: a jump between
// seeds that says nothing about the code.
const ssspDelta = 25

// workloads is the benchmark's fixed set. Sizes give every workload at
// least 100 timed ops in the 16 s a run measures on the 2-CPU
// reference host (README.md records why each differs from a round
// number).
var workloads = []workload{
	{
		name: "bfs2d-topdown",
		why:  "the paper's algorithm as published: every edge scanned through a localindex.Map probe, raw vertex lists on the wire; probe, union-fold and comm hand-off dominate, the codec is bypassed",
		kind: opBFS, n: 100000, r: 4, c: 4, part: bgl.Part2D,
		opts:    []bgl.Option{bgl.WithDirection(bgl.TopDown), bgl.WithWire(bgl.WireSparse)},
		sources: 32, cycle: 32, clients: 1,
	},
	{
		name: "bfs2d-dirop-hybrid",
		why:  "the flagship: same graph and bfs layer, direction-optimizing with the hybrid codec; few probes, so codec, bitmap gathers and bottom-up claims dominate and a probe speed-up should not move it",
		kind: opBFS, n: 100000, r: 4, c: 4, part: bgl.Part2D,
		opts:    []bgl.Option{bgl.WithDirection(bgl.DirectionOptimizing), bgl.WithWire(bgl.WireHybrid)},
		sources: 64, cycle: 64, clients: 1,
	},
	{
		name: "sssp2d-hybrid",
		why:  "delta-stepping on a weighted graph: where sort/dedup (dedupMin) and per-epoch reallocation live, an order of magnitude more bytes and allocations per op than BFS",
		kind: opSSSP, n: 40000, weighted: true, r: 4, c: 4, part: bgl.Part2D,
		opts:    []bgl.Option{bgl.WithWire(bgl.WireHybrid), bgl.WithDelta(ssspDelta)},
		sources: 16, cycle: 16, clients: 1,
	},
	{
		name: "multibfs1d-64",
		why:  "64-lane MultiBFS on the 1D engines: the only workload on fold-only all-P collectives, lane masks and dedupOr; it is the sweep graphd batches into and has a large fixed cost per sweep",
		kind: opMulti, n: 16000, r: 4, c: 4, part: bgl.Part1DCol,
		opts:    []bgl.Option{bgl.WithWire(bgl.WireHybrid)},
		sources: 128, cycle: 128 / multiStride, clients: 1,
	},
	{
		name: "graphd-bfs-c2",
		why:  "2 closed-loop HTTP clients send BFS queries to a 2-replica graphd with default batching; they fall into lock-step 2-lane batches, the regime where batching loses to unbatched serving today",
		kind: opService, n: 20000, weighted: true, r: 2, c: 2, part: bgl.Part2D,
		sources: 64, cycle: 64, clients: 2,
	},
	{
		name: "graphd-mix-c1",
		why:  "1 closed-loop client, 60% bfs / 20% path / 20% sssp: path and sssp bypass the batcher and a lone bfs waits a full window for a 1-lane batch, so a batcher change that hurts singles shows here",
		kind: opService, n: 20000, weighted: true, r: 2, c: 2, part: bgl.Part2D,
		sources: 64, cycle: 100, clients: 1, mix: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
