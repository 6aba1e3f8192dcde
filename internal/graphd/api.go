// Package graphd is the long-lived graph-query service: a server that
// distributes a graph over the simulated machine once at startup and
// then answers concurrent BFS / shortest-path / Δ-stepping queries over
// HTTP/JSON, plus the well-typed client the load generator and tests
// share.
//
// The core of the service is engine-paced dispatch (see batcher): a
// single-source BFS query that finds an engine replica idle runs on it
// at once — alone, direction-optimizing, under its own deadline, with
// no queue wait — and the queries that arrive while every replica is
// busy are the next batch: the replica that frees up takes its share of
// them, up to the 64-lane MultiBFS capacity, as ONE multi-source sweep
// sequence, and each caller gets its own lane's levels back — identical
// to an independent run, but the batch moves strictly fewer wire words
// and far less simulated execution time than one-query-at-a-time (the
// PR 4 acceptance result the service exists to exploit). There is no
// batching window and no timer. Queries that cannot share a sweep —
// Δ-stepping SSSP and path reconstruction — wait in the same queue, in
// arrival order, and run alone. Admission is bounded: once MaxWaiting
// queries are waiting the server answers 503 with a Retry-After header
// rather than building an unbounded backlog.
package graphd

// This file holds the JSON wire types the server and client share. All
// request bodies are strict: unknown fields, trailing data, and
// malformed JSON are 400s, never 500s.

// BFSRequest asks for a single-source BFS. Source is required; Target
// optionally asks for s→t reachability/distance; Levels asks for the
// full per-vertex level array (omit it on large graphs unless needed —
// the array has one entry per vertex). TimeoutMS > 0 bounds the
// query's wall-clock budget: past it the server answers 504 with
// partial statistics instead of finishing the traversal (the
// server-side cap, when configured, still applies if tighter).
type BFSRequest struct {
	Source    *int `json:"source"`
	Target    *int `json:"target,omitempty"`
	Levels    bool `json:"levels,omitempty"`
	TimeoutMS int  `json:"timeout_ms,omitempty"`
}

// BFSResponse answers a BFSRequest. Distance/Found are present only
// when the request named a target (Distance is -1 when the target is
// unreached); Levels only when requested (Unreached vertices hold -1).
type BFSResponse struct {
	Source   int        `json:"source"`
	Reached  int        `json:"reached"`
	Found    *bool      `json:"found,omitempty"`
	Distance *int32     `json:"distance,omitempty"`
	Levels   []int32    `json:"levels,omitempty"`
	Stats    QueryStats `json:"stats"`
}

// PathRequest asks for one shortest path Source→Target. Both are
// required. TimeoutMS works as in BFSRequest.
type PathRequest struct {
	Source    *int `json:"source"`
	Target    *int `json:"target"`
	TimeoutMS int  `json:"timeout_ms,omitempty"`
}

// PathResponse answers a PathRequest. Found is false (with a nil Path)
// when the target is unreachable — that is an answer, not an error.
type PathResponse struct {
	Source   int        `json:"source"`
	Target   int        `json:"target"`
	Found    bool       `json:"found"`
	Distance int32      `json:"distance"`
	Path     []int      `json:"path,omitempty"`
	Stats    QueryStats `json:"stats"`
}

// SSSPRequest asks for Δ-stepping shortest distances from Source.
// Delta 0 selects the max(1, maxWeight/avgDegree) heuristic; Target
// optionally asks for one s→t distance; Dists for the full per-vertex
// distance array.
type SSSPRequest struct {
	Source    *int   `json:"source"`
	Target    *int   `json:"target,omitempty"`
	Delta     uint32 `json:"delta,omitempty"`
	Dists     bool   `json:"dists,omitempty"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
}

// SSSPResponse answers an SSSPRequest. Unreachable vertices hold
// MaxDist (the uint32 maximum) in Dists; Distance/Found are present
// only when the request named a target.
type SSSPResponse struct {
	Source   int        `json:"source"`
	Reached  int        `json:"reached"`
	Found    *bool      `json:"found,omitempty"`
	Distance *uint32    `json:"distance,omitempty"`
	Dists    []uint32   `json:"dists,omitempty"`
	Stats    QueryStats `json:"stats"`
}

// QueryStats reports how the service executed one query: how long it
// waited in the queue for an engine, how many queries and distinct
// sources shared its run (both 1 for a query that ran alone), and the
// run's simulated cost — which is AMORTIZED over the whole batch, so a query
// that shared a 64-lane sweep reports the one sweep's words, not 64
// runs' worth.
type QueryStats struct {
	QueueWaitS float64 `json:"queue_wait_s"`
	BatchSize  int     `json:"batch_size"`
	BatchLanes int     `json:"batch_lanes"`
	SimExecS   float64 `json:"simexec_s"`
	SimCommS   float64 `json:"simcomm_s"`
	Words      int64   `json:"words"`
	WallS      float64 `json:"wall_s"`
}

// ErrorResponse is the body of every non-2xx answer. A 504
// (deadline-exceeded) answer sets DeadlineExceeded and Partial — how
// far the run got: to the boundary where the engines canceled
// cooperatively, or, for a rider whose deadline passed while the sweep
// it shared ran on for others, to the end. Only the stuck-engine
// backstop answers without Partial.
type ErrorResponse struct {
	Error            string        `json:"error"`
	DeadlineExceeded bool          `json:"deadline_exceeded,omitempty"`
	Partial          *PartialStats `json:"partial,omitempty"`
}

// PartialStats reports the progress of the run behind a 504: Done whole
// units (Unit "level", "sweep", or "epoch") completed, and the
// simulated / wall cost spent.
type PartialStats struct {
	Unit     string  `json:"unit"`
	Done     int     `json:"done"`
	SimExecS float64 `json:"simexec_s"`
	WallS    float64 `json:"wall_s"`
}

// HealthzResponse is the GET /healthz document: "ok" (200, every
// replica live), "degraded" (200, quarantined replicas being rebuilt),
// "down" (503, no live replica), or "draining" (503, shutdown begun).
type HealthzResponse struct {
	Status      string `json:"status"`
	Quarantined int    `json:"quarantined,omitempty"`
}

// GraphInfo describes the graph the server distributed at startup.
type GraphInfo struct {
	N         int    `json:"n"`
	Edges     int64  `json:"edges"`
	Weighted  bool   `json:"weighted"`
	Mesh      string `json:"mesh"`
	Partition string `json:"partition"`
	Wire      string `json:"wire"`
	Replicas  int    `json:"replicas"`
}

// BatchingInfo reports the batcher and admission configuration.
type BatchingInfo struct {
	MaxBatch   int `json:"max_batch"`
	MaxWaiting int `json:"max_waiting"`
}

// QueryCounts aggregates the server's lifetime traffic.
type QueryCounts struct {
	BFS              int64   `json:"bfs"`
	Path             int64   `json:"path"`
	SSSP             int64   `json:"sssp"`
	Batches          int64   `json:"batches"`
	BatchedQueries   int64   `json:"batched_queries"`
	MeanBatchSize    float64 `json:"mean_batch_size"`
	Rejected         int64   `json:"rejected"`
	Errors           int64   `json:"errors"`
	DeadlineExceeded int64   `json:"deadline_exceeded"`
	Inflight         int64   `json:"inflight"`
}

// ReplicaInfo reports the engine pool's supervision state: how many
// replicas were configured, how many are live right now, how many are
// quarantined awaiting rebuild, and the lifetime panic/rebuild counts.
type ReplicaInfo struct {
	Configured  int   `json:"configured"`
	Live        int   `json:"live"`
	Quarantined int   `json:"quarantined"`
	Panics      int64 `json:"panics"`
	Rebuilds    int64 `json:"rebuilds"`
}

// FaultInfo aggregates the transport-fault counters of every sweep and
// query served so far, present when the server runs with a fault plan
// (or any run recorded fault activity).
type FaultInfo struct {
	Plan          string  `json:"plan,omitempty"`
	Injected      uint64  `json:"injected"`
	Retries       uint64  `json:"retries"`
	ChecksumFails uint64  `json:"checksum_fails"`
	DupsDiscarded uint64  `json:"dups_discarded"`
	RetrySeconds  float64 `json:"retry_seconds"`
}

// StatsResponse is the GET /v1/stats document.
type StatsResponse struct {
	UptimeS  float64      `json:"uptime_s"`
	Graph    GraphInfo    `json:"graph"`
	Batching BatchingInfo `json:"batching"`
	Queries  QueryCounts  `json:"queries"`
	Replicas ReplicaInfo  `json:"replicas"`
	Faults   *FaultInfo   `json:"faults,omitempty"`
}
