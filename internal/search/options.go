// Package search is the scaffold every distributed search in this
// repository stands on. The paper has one superstep — expand, scan the
// owned edge lists into per-owner bins, fold, mark (Algorithm 1 steps
// 7–16, Algorithm 2 steps 7–19) — and BFS, bi-directional BFS, batched
// multi-source BFS and Δ-stepping SSSP all run it on either
// partitioning, so what does not depend on the family lives here once:
//
//   - the run harness (Run, CheckShape, Owned): install the trace
//     recorder and fault plan, run one body per rank, each writing its
//     owned block of the answer, collect cancellations, merge the ranks'
//     ledgers;
//   - the step ledger (Step, StepTimer): the words, edges, container
//     choices and clock/comm/overlap deltas every per-level or per-epoch
//     record keeps, their trace span and their checkpoint codec, with
//     the blob envelope around a family's state (Halt, Resume);
//   - the cancel poll (Poll) and the Cancel hooks it consults;
//   - the column phase (Column, Bins, Scan): the targeted expand's
//     row-need walk, staging and exchange, and the scan's
//     per-destination bins, collected in chunk order and charged by one
//     tail;
//   - the value fold (Fold): the per-owner merge, exchange and owner-side
//     merge of (vertex, value) pairs, generic over the value — a lane
//     mask OR-merged, a tentative distance min-merged;
//   - the options block (Common) whose knobs — wire codec, message
//     buffers (§3.1), schedule, cores, workers — have one meaning for
//     every family, and the shared metric names.
//
// A family is then its state, its scan body, its mark or apply, and its
// record's own counters.
package search

import (
	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/frontier"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// DefaultChunkWords is the paper's fixed 16Ki-word message buffer
// (§3.1), the production chunking every algorithm defaults to.
const DefaultChunkWords = 16384

// Common is the options block shared by every search algorithm.
// Algorithm-specific option structs embed it, promoting the fields so
// existing o.Wire / o.ChunkWords call sites keep working while the
// public API applies one option to every family.
type Common struct {
	// Wire selects the wire encoding of vertex-set payloads (expand
	// frontiers, union-fold sets, relax-request sets, lane-OR
	// frontiers): WireSparse raw vertex lists, WireDense whole-universe
	// bitmaps, WireAuto whichever of the two is fewer words per payload,
	// WireHybrid chunked delta-varint/bitmap/run-length containers
	// (never more words than WireAuto).
	Wire frontier.WireMode
	// ChunkWords > 0 caps every physical message at this many words
	// (§3.1 fixed-length buffers); 0 sends logical messages whole.
	ChunkWords int
	// Async selects the overlapped per-level/per-epoch schedule: every
	// exchange posts its sends before any wait and received parts stream
	// into the local scan as they complete, hiding wire time under the
	// hash-probe compute that dominates the §4.2 profile. Results
	// (levels, distances, words, duplicate counts) are identical to the
	// synchronous schedule; only the simulated clock — audited by the
	// OverlapS / hidden-fraction statistics — improves. On by default;
	// disable for the phase-synchronous baseline.
	Async bool
	// Cores is the modeled per-node core count for the cost model: the
	// charges of the loops that run on the worker pool (top-down scans,
	// bottom-up edge checks, Δ-stepping relaxations) divide by it, the
	// way BG/L virtual-node mode (2 compute cores) halves local work
	// versus co-processor mode (1, the default). 0 or 1 is the paper's
	// single-core baseline, bit-identical to earlier releases. Serial
	// phases — marks, sorts, bucket scans, collectives — stay undivided:
	// the model only credits parallelism where the engines actually
	// have it.
	Cores int
	// Workers sizes the real per-rank worker pool threaded through the
	// same hot loops. It affects wall-clock only: Results, words,
	// simulated clocks, and container histograms are bit-identical for
	// every value — per-worker outputs merge in a fixed chunk order. 0
	// or 1 runs the loops inline with zero goroutine overhead. WithCores
	// sets both knobs together so the simulated and real clocks stay
	// coupled.
	Workers int
	// Trace, when non-nil, records every simulated-clock charge and
	// every collective/engine phase of the run as spans (see
	// internal/trace). Recording is observation only — the simulated
	// clock is identical with and without it. A Recorder holds one run;
	// reusing it across runs keeps only the last.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives the run's statistics as
	// counters/gauges/histograms after the run completes (see
	// internal/metrics) — the snapshot bfsrun -metrics writes.
	Metrics *metrics.Registry
	// Fault, when non-nil, is the seeded deterministic fault plan the
	// simulated transport consults for every point-to-point message
	// (see internal/fault). Any plan below the retry budget leaves the
	// Result identical to the fault-free run except for the simulated
	// times and the Faults counters.
	Fault *fault.Plan
	// Checkpoint, when enabled, halts the run at the plan's level
	// (BFS) / sweep (multi-source BFS) / epoch ordinal (Δ-stepping),
	// deposits every rank's engine and transport state, and a digest of
	// its store, into the plan, and returns a partial Result. Not
	// supported by the bi-directional driver, or combined with Trace (a
	// restored run's spans cannot tile the clock from zero).
	Checkpoint *checkpoint.Plan
	// Restore, when non-nil, resumes a run from a snapshot instead of
	// starting at the source: the engines load every rank's state and
	// continue, producing a Result byte-identical to the uninterrupted
	// run. The workload (source or batch, options) must match the
	// snapshot's fingerprint, and every rank's store the digest in its
	// blob.
	Restore *checkpoint.Snapshot
	// Cancel, when non-nil, is polled with the rank's simulated clock
	// at every level / sweep / epoch boundary. A non-nil return stops
	// the run cooperatively: the decision is taken collectively (one
	// extra or-reduction per boundary, charged like any other
	// termination check), so every rank stops at the same boundary and
	// the Run wrappers return the partial Result alongside a *Canceled
	// error. The hook must be safe for concurrent use — every rank
	// polls it. Nil (the default) adds no reductions, leaving
	// un-canceled runs byte-identical to earlier releases.
	Cancel func(simSeconds float64) error
}

// Defaults returns the shared production configuration: legacy sparse
// wire lists, the paper's fixed message buffers, and the overlapped
// (asynchronous) exchange schedule.
func Defaults() Common {
	return Common{ChunkWords: DefaultChunkWords, Async: true}
}
