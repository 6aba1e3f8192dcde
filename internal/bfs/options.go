// Package bfs implements the paper's contribution: level-synchronized
// distributed breadth-first search with 1D (Algorithm 1) and 2D
// (Algorithm 2) partitionings, the bi-directional variant of §2.3, the
// sent-neighbors cache of §2.4.3, fixed-length message buffers of §3.1,
// and selectable expand/fold collective algorithms including the
// BlueGene/L-optimized two-phase operations of §3.2.
//
// Beyond the paper, the one engine — every partitioning is a mesh
// shape — supports direction-optimizing traversal: each level can run
// top-down (the paper's expansion), bottom-up (unlabeled vertices search
// their own edge lists for a frontier parent, exchanged as bitmaps), or
// switch per level on Beamer's out-degree rule. Frontiers use the
// pluggable sparse/dense/adaptive representations of internal/frontier,
// whose wire codec lets the collectives transmit bitmaps instead of
// vertex lists when denser is cheaper.
//
// The top-down level — expand, scan, fold, mark — is written once, for
// one source and for a batch of up to 64 (MultiRun2D): a batch is a side
// whose vertices carry a lane mask as their payload, so the scan kernel
// (partScan), the step, the mark and the uni-directional driver, with
// its checkpoint/restore, are the same code; only the fold differs, a
// set union for one source and a lane-mask OR for a batch.
package bfs

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/search"
)

// Direction selects how levels are expanded.
type Direction int

const (
	// TopDown is the paper's level expansion: scan the frontier's edge
	// lists and deliver the discovered neighbors to their owners. Cost
	// is proportional to the edges out of the frontier.
	TopDown Direction = iota
	// BottomUp inverts the level: every unlabeled vertex scans its own
	// edge list for a frontier parent and stops at the first hit. Cost
	// is proportional to the edges out of the *unlabeled* set, with
	// early exit — far cheaper on the huge middle levels of the
	// low-diameter Poisson graphs the paper studies.
	BottomUp
	// DirectionOptimizing switches per level between the two (the
	// standard Beamer-style hybrid): bottom-up once the frontier is
	// large relative to the unlabeled remainder, top-down otherwise.
	DirectionOptimizing
)

func (d Direction) String() string {
	switch d {
	case TopDown:
		return "topdown"
	case BottomUp:
		return "bottomup"
	case DirectionOptimizing:
		return "dirop"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

const (
	// directionAlpha is the direction-optimizing switch factor of
	// Beamer's true alpha heuristic: a level runs bottom-up when
	// alpha x (edges out of the frontier) >= (edges out of the
	// unlabeled set). On uniform-degree Poisson graphs the degree sums
	// cancel and this switches exactly where the old vertex-count rule
	// did, preserving the measured middle-level wins; on degree-skewed
	// frontiers (a hub vertex, the bi-directional driver's hub-side
	// steps) the out-degree estimate fires levels the vertex count
	// never would. Beamer's alpha=14 overshoots here because the
	// simulator charges hash probes and received words far above edge
	// scans, making one-level-early switches expensive.
	directionAlpha = 6.0
)

// ExpandAlg selects the expand (processor-column) collective.
type ExpandAlg int

const (
	// ExpandTargeted sends a frontier vertex only to the mesh rows that
	// hold a non-empty partial edge list for it, via a personalized
	// all-to-all — the sparse-frontier optimization of §2.2 whose
	// message length §3.1 bounds as (n/P)·γ(n/R)·(R−1).
	ExpandTargeted ExpandAlg = iota
	// ExpandAllGather broadcasts the whole frontier to the processor
	// column with a ring all-gather — the traditional dense expand the
	// paper calls non-scalable.
	ExpandAllGather
	// ExpandTwoPhase broadcasts the frontier with the two-phase grouped
	// ring of §3.2.2 (Figure 3).
	ExpandTwoPhase
)

func (a ExpandAlg) String() string {
	switch a {
	case ExpandTargeted:
		return "targeted"
	case ExpandAllGather:
		return "allgather"
	case ExpandTwoPhase:
		return "twophase"
	default:
		return fmt.Sprintf("ExpandAlg(%d)", int(a))
	}
}

// FoldAlg selects the fold (processor-row) collective.
type FoldAlg int

const (
	// FoldTwoPhase is the paper's union-fold (Figure 2): a grouped-ring
	// reduce-scatter with in-flight set-union duplicate elimination.
	FoldTwoPhase FoldAlg = iota
	// FoldDirect is a direct personalized all-to-all followed by local
	// union — the traditional fold.
	FoldDirect
	// FoldTwoPhaseNoUnion runs the two-phase schedule without in-flight
	// union; duplicates cross the wire. Baseline for Fig. 7.
	FoldTwoPhaseNoUnion
)

func (a FoldAlg) String() string {
	switch a {
	case FoldTwoPhase:
		return "twophase-union"
	case FoldDirect:
		return "direct"
	case FoldTwoPhaseNoUnion:
		return "twophase-nounion"
	default:
		return fmt.Sprintf("FoldAlg(%d)", int(a))
	}
}

// Options configures a distributed search.
type Options struct {
	Source graph.Vertex
	// Target, when HasTarget, stops the search as soon as the target is
	// labeled, as in the paper's s→t search-time experiments. Without a
	// target the search is a full traversal.
	Target    graph.Vertex
	HasTarget bool

	Expand ExpandAlg
	Fold   FoldAlg
	// Direction selects top-down (the paper's algorithm, the default),
	// bottom-up, or per-level direction-optimizing traversal.
	Direction Direction
	// Common carries the knobs shared with every other search
	// algorithm — Wire, ChunkWords, ... — promoted so o.Wire etc. read
	// as before. The bottom-up steps exchange bitmaps under every Wire
	// mode except WireHybrid, which re-encodes those bitmaps through the
	// same container codec.
	search.Common
	// SentCache enables the sent-neighbors optimization (§2.4.3): a
	// neighbor vertex is never sent to its owner twice.
	SentCache bool
	// MaxLevels bounds the search depth; 0 means unbounded.
	MaxLevels int
}

// DefaultOptions returns the configuration the paper runs on
// BlueGene/L: targeted expand, union-fold, sent-neighbors cache on, and
// fixed 16Ki-word message buffers.
func DefaultOptions(source graph.Vertex) Options {
	return Options{
		Source:    source,
		Expand:    ExpandTargeted,
		Fold:      FoldTwoPhase,
		SentCache: true,
		Common:    search.Defaults(),
	}
}
