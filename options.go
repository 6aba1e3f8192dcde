package bgl

import (
	"context"
	"time"

	"repro/internal/analytic"
	"repro/internal/bfs"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/frontier"
	"repro/internal/search"
	"repro/internal/sssp"
)

// searchConfig is the unified option target: one BFS-family and one
// SSSP-family options struct, configured together so a single Option
// vocabulary serves every search algorithm. Shared knobs (WithWire,
// WithChunkWords) write both halves; algorithm-specific knobs write
// only theirs and are ignored by the other family's runs.
type searchConfig struct {
	bfs  bfs.Options
	sssp sssp.Options
}

// newSearchConfig returns the production defaults for every family,
// searching from source.
func newSearchConfig(source Vertex) searchConfig {
	return searchConfig{
		bfs:  bfs.DefaultOptions(source),
		sssp: sssp.DefaultOptions(source),
	}
}

func (c *searchConfig) apply(opts []Option) {
	for _, fn := range opts {
		if fn != nil {
			fn(c)
		}
	}
}

// Option adjusts a search run. One option vocabulary serves every
// algorithm and partitioning: the shared knobs (WithWire,
// WithChunkWords) apply to BFS, multi-source BFS and Δ-stepping SSSP
// alike; algorithm-specific options (WithDirection,
// WithDelta, ...) are silently ignored by runs of the other family.
// MultiBFS additionally ignores the single-source traversal-shape
// options — see its doc comment for the exact carve-out.
type Option func(*searchConfig)

// ExpandAlg and FoldAlg re-export the collective algorithm selectors.
type (
	ExpandAlg = bfs.ExpandAlg
	FoldAlg   = bfs.FoldAlg
)

// Expand algorithm choices (§2.2, §3.2.2).
const (
	ExpandTargeted  = bfs.ExpandTargeted
	ExpandAllGather = bfs.ExpandAllGather
	ExpandTwoPhase  = bfs.ExpandTwoPhase
)

// Fold algorithm choices (§3.2.2).
const (
	FoldTwoPhase        = bfs.FoldTwoPhase
	FoldDirect          = bfs.FoldDirect
	FoldTwoPhaseNoUnion = bfs.FoldTwoPhaseNoUnion
)

// Direction re-exports the per-level traversal direction policy.
type Direction = bfs.Direction

// Direction policy choices: the paper's top-down expansion, the
// bottom-up parent search, or the per-level adaptive hybrid.
const (
	TopDown             = bfs.TopDown
	BottomUp            = bfs.BottomUp
	DirectionOptimizing = bfs.DirectionOptimizing
)

// WireMode re-exports the wire-encoding selector for vertex-set
// payloads.
type WireMode = frontier.WireMode

// Wire encodings for vertex-set payloads: plain vertex lists, bitmaps,
// whichever of the two is fewer words per payload, or the chunked
// hybrid container codec (delta-varint lists / bitmaps / run-length
// extents per 4096-id chunk, never more words than WireAuto).
const (
	WireSparse = frontier.WireSparse
	WireDense  = frontier.WireDense
	WireAuto   = frontier.WireAuto
	WireHybrid = frontier.WireHybrid
)

// ContainerHist re-exports the hybrid codec's container histogram (see
// Result.Containers and LevelStats.Containers).
type ContainerHist = frontier.ContainerHist

// Shared options — these apply to every search algorithm.

// WithWire selects the wire encoding of vertex-set payloads: BFS
// expand frontiers and union-fold sets, multi-source lane-OR
// frontiers, and SSSP relax-request sets all ride the same codec.
func WithWire(m WireMode) Option {
	return func(c *searchConfig) { c.bfs.Wire = m; c.sssp.Wire = m }
}

// WithChunkWords caps physical messages at n words (§3.1 fixed
// buffers) in every algorithm; 0 disables chunking.
func WithChunkWords(n int) Option {
	return func(c *searchConfig) { c.bfs.ChunkWords = n; c.sssp.ChunkWords = n }
}

// WithAsync toggles the overlapped exchange schedule (on by default):
// every expand/fold/relax exchange posts its sends before any wait and
// streams received parts into the local scan, hiding wire time under
// the hash-probe compute that dominates the cost model. Results are
// identical either way; simulated execution time and the
// OverlapS/hidden-fraction statistics differ. WithAsync(false) selects
// the phase-synchronous baseline the paper describes.
func WithAsync(on bool) Option {
	return func(c *searchConfig) { c.bfs.Async = on; c.sssp.Async = on }
}

// WithCores models n compute cores per node and sizes the real worker
// pool to match. The simulated clock divides the pool-run loops'
// charges (top-down scans, bottom-up edge checks, lane sweeps,
// Δ-stepping relaxations, hybrid codec) by n — BG/L virtual-node mode
// (n=2) versus the co-processor default (n=1) — while serial phases
// (marks, sorts, min/OR-merges, collectives) stay undivided. Results,
// words, duplicate counts, and container histograms are bit-identical
// for every n; only the simulated and real clocks change. n <= 1 is
// the paper's single-core baseline.
func WithCores(n int) Option {
	return func(c *searchConfig) {
		c.bfs.Cores, c.sssp.Cores = n, n
		c.bfs.Workers, c.sssp.Workers = n, n
	}
}

// WithWorkers sizes the real per-rank worker pool without touching the
// cost model: wall-clock changes, every simulated number — clocks,
// words, Results — is bit-identical for any n. Use it to soak the
// deterministic-merge contract (e.g. under -race) or to decouple host
// parallelism from the modeled BG/L core count; n <= 1 runs the hot
// loops inline.
func WithWorkers(n int) Option {
	return func(c *searchConfig) { c.bfs.Workers, c.sssp.Workers = n, n }
}

// BFS-family options (ignored by SSSP runs).

// WithDirection selects the traversal direction policy.
func WithDirection(d Direction) Option {
	return func(c *searchConfig) { c.bfs.Direction = d }
}

// WithExpand selects the expand collective.
func WithExpand(a ExpandAlg) Option {
	return func(c *searchConfig) { c.bfs.Expand = a }
}

// WithFold selects the fold collective.
func WithFold(a FoldAlg) Option {
	return func(c *searchConfig) { c.bfs.Fold = a }
}

// WithSentCache toggles the sent-neighbors optimization (§2.4.3).
func WithSentCache(on bool) Option {
	return func(c *searchConfig) { c.bfs.SentCache = on }
}

// WithMaxLevels bounds the search depth (BFS levels or multi-source
// sweeps).
func WithMaxLevels(n int) Option {
	return func(c *searchConfig) { c.bfs.MaxLevels = n }
}

// Robustness: fault injection and checkpoint/restart. These apply to
// every search algorithm (checkpointing to the uni-directional drivers
// only — see WithCheckpoint).

// FaultPlan re-exports the seeded deterministic fault plan the
// simulated transport consults for every point-to-point message: bit
// corruption, drops, duplicates, bounded delays, transient link
// outages and straggler ranks, each a pure hash of the message
// coordinates (see internal/fault). Build one directly, with
// ParseFaultPlan, or with CannedFaultPlan.
type FaultPlan = fault.Plan

// FaultOutage re-exports a transient link-down window.
type FaultOutage = fault.Outage

// FaultStats re-exports the per-run fault/recovery counters surfaced
// as Result.Faults and SSSPResult.Faults.
type FaultStats = comm.FaultStats

// ParseFaultPlan builds a fault plan from bfsrun's -fault spec format,
// e.g. "seed=42,corrupt=0.01,drop=0.01,outage=*>0@100us-300us", or
// "canned" / "canned:SEED" for the chaos-smoke plan.
func ParseFaultPlan(spec string) (*FaultPlan, error) { return fault.Parse(spec) }

// CannedFaultPlan returns the chaos-smoke plan: every fault class at
// rates that exercise the recovery protocol while staying far below
// the retry budget, one straggler, and one early transient outage.
func CannedFaultPlan(seed uint64) *FaultPlan { return fault.Canned(seed) }

// HostileFaultPlan returns a plan no retry protocol survives: every
// message corrupted on every attempt with a deliberately small budget,
// so the first exchange deterministically exhausts its retries and the
// rank panics. It exists to drill supervision paths (graphd's replica
// quarantine, the chaos harness), not to model any real network.
func HostileFaultPlan(seed uint64) *FaultPlan { return fault.Hostile(seed) }

// WithFault injects the plan's faults into every message of the run.
// Any plan below the retry budget leaves Levels/Dist and every word
// and duplicate count identical to the fault-free run; only the
// simulated times and the Faults counters differ.
func WithFault(p *FaultPlan) Option {
	return func(c *searchConfig) { c.bfs.Fault = p; c.sssp.Fault = p }
}

// Cancellation: cooperative per-query deadlines. A run with a cancel
// hook installed polls it at every level / sweep / epoch boundary and,
// when it fires, stops collectively (every rank agrees at the same
// boundary) and returns the partial Result ALONGSIDE a *Canceled
// error — callers that want the partial labeling check for it with
// errors.As. Runs without a hook pay nothing and stay byte-identical
// to earlier releases.

// Canceled re-exports the cooperative-cancellation error: the run
// completed Done whole units (Unit "level", "sweep", or "epoch")
// before stopping, with the hook's reason in Cause.
type Canceled = search.Canceled

// WithCancel installs a cooperative cancellation hook, polled with the
// rank's simulated clock (in seconds) at every level / sweep / epoch
// boundary. A non-nil return cancels the run. The hook must be safe
// for concurrent use — every rank polls it. Multiple cancel options
// compose: the run stops when any hook fires.
func WithCancel(fn func(simSeconds float64) error) Option {
	return func(c *searchConfig) {
		c.bfs.Cancel = search.ChainCancel(c.bfs.Cancel, fn)
		c.sssp.Cancel = search.ChainCancel(c.sssp.Cancel, fn)
	}
}

// WithContext cancels the run at the first boundary after ctx is done,
// with the context's cause as the Canceled reason.
func WithContext(ctx context.Context) Option { return WithCancel(search.ContextCancel(ctx)) }

// WithDeadline cancels the run at the first boundary after the wall
// clock passes t.
func WithDeadline(t time.Time) Option { return WithCancel(search.DeadlineCancel(t)) }

// WithSimBudget cancels the run once a rank's simulated clock exceeds
// the budget — a deterministic ceiling on the modeled execution one
// run may consume, independent of host speed.
func WithSimBudget(seconds float64) Option { return WithCancel(search.SimBudgetCancel(seconds)) }

// CheckpointPlan re-exports the checkpoint collection plan: where to
// halt (a BFS level / Δ-stepping epoch ordinal) and the per-rank state
// blobs deposited there.
type CheckpointPlan = checkpoint.Plan

// CheckpointSnapshot re-exports a collected snapshot — the unit
// WriteCheckpoint/ReadCheckpoint persist and WithRestore resumes from.
type CheckpointSnapshot = checkpoint.Snapshot

// NewCheckpoint returns a plan that halts the run at BFS level /
// MultiBFS sweep / Δ-stepping epoch ordinal at (counting completed
// units, so at=2 stops after two full levels) and collects every rank's
// engine and transport state.
func NewCheckpoint(at int) *CheckpointPlan { return checkpoint.NewPlan(at) }

// WriteCheckpoint persists a snapshot (atomically, via rename).
func WriteCheckpoint(path string, s *CheckpointSnapshot) error {
	return checkpoint.WriteFile(path, s)
}

// ReadCheckpoint loads a snapshot written by WriteCheckpoint,
// rejecting truncated or corrupted files.
func ReadCheckpoint(path string) (*CheckpointSnapshot, error) {
	return checkpoint.ReadFile(path)
}

// WithCheckpoint halts the run at the plan's level/sweep/epoch,
// deposits every rank's state into the plan, and returns the partial
// Result. Supported by the uni-directional drivers (BFS, Search, Path,
// MultiBFS, SSSP); the bi-directional driver and runs with WithTrace
// reject it.
func WithCheckpoint(p *CheckpointPlan) Option {
	return func(c *searchConfig) { c.bfs.Checkpoint = p; c.sssp.Checkpoint = p }
}

// WithRestore resumes a run from a snapshot instead of starting at the
// source. The workload must match the snapshot (same graph, mesh,
// source or batch, and options — enforced by fingerprint, and each
// rank's store by a digest of its edges); the resumed Result is
// byte-identical to the uninterrupted run's, wall time aside.
func WithRestore(s *CheckpointSnapshot) Option {
	return func(c *searchConfig) { c.bfs.Restore = s; c.sssp.Restore = s }
}

// SSSP-family options (ignored by BFS runs).

// WithDelta sets the Δ-stepping bucket width: 0 selects the
// max(1, maxWeight/avgDegree) heuristic, DeltaInf the single-bucket
// Bellman-Ford degenerate; Δ at or below the minimum edge weight
// settles buckets Dijkstra-like.
func WithDelta(delta uint32) Option {
	return func(c *searchConfig) { c.sssp.Delta = delta }
}

// Analytic re-exports (§3.1, Figure 6b).

// Gamma is the column-occupancy probability γ(m) of §3.1.
func Gamma(m, n, k float64) float64 { return analytic.Gamma(m, n, k) }

// Expected1DFold is the expected 1D per-processor fold length.
func Expected1DFold(n, k float64, p int) float64 { return analytic.Expected1DFold(n, k, p) }

// Expected2DExpand is the expected 2D per-processor expand length.
func Expected2DExpand(n, k float64, r, c int) float64 { return analytic.Expected2DExpand(n, k, r, c) }

// Expected2DFold is the expected 2D per-processor fold length.
func Expected2DFold(n, k float64, r, c int) float64 { return analytic.Expected2DFold(n, k, r, c) }

// CrossoverK solves for the degree at which 1D and 2D volumes match
// (Figure 6b).
func CrossoverK(n float64, p int, kMax float64) (float64, error) {
	return analytic.CrossoverK(n, p, kMax)
}
