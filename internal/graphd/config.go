package graphd

import (
	"fmt"
	"time"

	bgl "repro"
)

// Defaults for the knobs of Config, and the constants beside them.
const (
	// retryAfterSeconds is the Retry-After of every 503.
	retryAfterSeconds = "1"

	// wire is the payload codec of every sweep and query: the hybrid
	// containers, never more words than the other three (the ledger's
	// headline -direction x -wire rows, cmd/bfsrun/testdata/ledger.tsv).
	wire = bgl.WireHybrid

	// Rebuild backoff bounds for the replica supervisor: the first
	// rebuild of a quarantined replica waits DefaultRebuildBackoff,
	// doubling per failure up to maxRebuildBackoff.
	DefaultRebuildBackoff = 50 * time.Millisecond
	maxRebuildBackoff     = 2 * time.Second
)

// Config describes a graphd server: the graph to distribute once at
// startup, the simulated machine to distribute it over, and the
// batching / admission knobs. There is no batching window: BFS queries
// are paced by the engines (see batcher) — one that finds a replica idle
// runs at once, alone and direction-optimizing; those that arrive while
// every replica is busy are the next batch.
type Config struct {
	// Graph is the graph the server answers queries about (required).
	// The caller loads or generates it; NewServer distributes it.
	Graph *bgl.Graph

	// R, C are the logical mesh dimensions (default 1x1); Partition
	// selects the layout (default Part2D).
	R, C      int
	Partition bgl.Partition

	// Cores models n compute cores per node (see bgl.WithCores);
	// Workers sizes the real per-rank pool (see bgl.WithWorkers; zero
	// follows Cores). Both zero is the engine default: a single core,
	// inline loops.
	Cores, Workers int

	// Replicas is the number of engines: each a simulated machine of its
	// own (a Cluster) over the one DistGraph distributed at startup. One
	// engine runs one sweep or query at a time, so replicas bound the
	// service's real execution concurrency. Default 1.
	Replicas int

	// MaxBatch caps the distinct sources one engine takes per run
	// (default bgl.MaxLanes = 64, the MultiBFS lane capacity); 1 serves
	// every BFS query alone.
	MaxBatch int

	// MaxWaiting bounds the queries of every kind admitted but not yet
	// answered (default 4x MaxBatch): they wait in one arrival-order
	// queue for the engines. Beyond it the server answers 503 with a
	// Retry-After of one second.
	MaxWaiting int

	// Fault, when non-nil, injects the plan's deterministic transport
	// faults into every sweep and query the server runs. The engines'
	// recovery protocol absorbs any plan below the retry budget, so
	// answers stay identical to fault-free serving; the per-run fault
	// counters aggregate into /v1/stats and /metrics.
	Fault *bgl.FaultPlan

	// MaxQueryWall caps every query's wall-clock budget server-side
	// (0 = uncapped). A request's timeout_ms tightens but never loosens
	// it. MaxSimExec caps the SIMULATED execution seconds a single run
	// may burn (0 = uncapped) — the defense against a pathological
	// query on a fault plan whose retries balloon simulated time.
	MaxQueryWall time.Duration
	MaxSimExec   float64

	// ChaosPanicSweep, when > 0, arms a one-shot chaos drill: the Nth
	// BFS sweep the server runs gets a hostile fault overlay that
	// deterministically exhausts the retry budget and panics a rank.
	// The serving path quarantines that replica, retries the sweep on a
	// healthy one, and the supervisor rebuilds the casualty — so the
	// query still succeeds and the drill is observable only in
	// /v1/stats. Test/chaos-harness knob; 0 (the default) disables it.
	ChaosPanicSweep int

	// RebuildBackoff is the supervisor's wait before it first rebuilds
	// a quarantined replica (default DefaultRebuildBackoff), doubling
	// per failed build up to two seconds. The chaos tests hold the
	// degraded window open with it.
	RebuildBackoff time.Duration
}

// withDefaults returns cfg with every zero knob replaced by its
// default. It does not validate; NewServer does.
func (cfg Config) withDefaults() Config {
	if cfg.R == 0 {
		cfg.R = 1
	}
	if cfg.C == 0 {
		cfg.C = 1
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 1
	}
	if cfg.Cores == 0 {
		cfg.Cores = 1 // the engines' clamp, so the config a server keeps names the run
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = bgl.MaxLanes
	}
	if cfg.MaxWaiting == 0 {
		cfg.MaxWaiting = 4 * cfg.MaxBatch
	}
	if cfg.RebuildBackoff == 0 {
		cfg.RebuildBackoff = DefaultRebuildBackoff
	}
	return cfg
}

// poolSize is the real per-rank worker pool every run gets: Workers
// when set — 1 included, the inline loops under a multi-core cost
// model — else one worker per modeled core, what bgl.WithCores sizes it
// to.
func (cfg Config) poolSize() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return max(cfg.Cores, 1)
}

// validate rejects configurations no server can run. Distribute-style
// errors (mesh larger than the graph, unknown partitioning) surface
// from the engine build in NewServer with the same descriptive text the
// library gives.
func (cfg Config) validate() error {
	if cfg.Graph == nil {
		return fmt.Errorf("graphd: config needs a graph")
	}
	if cfg.R < 0 || cfg.C < 0 {
		return fmt.Errorf("graphd: mesh must be positive, got %dx%d", cfg.R, cfg.C)
	}
	if cfg.MaxBatch < 0 || cfg.MaxBatch > bgl.MaxLanes {
		return fmt.Errorf("graphd: max batch %d outside the MultiBFS lane capacity [1, %d]",
			cfg.MaxBatch, bgl.MaxLanes)
	}
	if cfg.Cores < 0 || cfg.Workers < 0 {
		return fmt.Errorf("graphd: negative core or worker count (cores %d, workers %d)", cfg.Cores, cfg.Workers)
	}
	if cfg.Replicas < 0 {
		return fmt.Errorf("graphd: negative replica count %d", cfg.Replicas)
	}
	if cfg.MaxWaiting < 0 {
		return fmt.Errorf("graphd: the admission bound must be non-negative, got %d", cfg.MaxWaiting)
	}
	if cfg.MaxQueryWall < 0 {
		return fmt.Errorf("graphd: negative query wall cap %v", cfg.MaxQueryWall)
	}
	if cfg.MaxSimExec < 0 {
		return fmt.Errorf("graphd: negative simulated-execution cap %g", cfg.MaxSimExec)
	}
	if cfg.ChaosPanicSweep < 0 {
		return fmt.Errorf("graphd: negative chaos panic sweep %d", cfg.ChaosPanicSweep)
	}
	return nil
}

// engine is one simulated machine. An engine runs one sweep or query at
// a time (the ranks share mailboxes), so the server keeps engines in a
// pool and callers borrow one per run; the distributed graph's stores
// are read-only, so every engine searches the server's one DistGraph.
// idx names the replica slot for quarantine accounting and rebuild logs.
type engine struct {
	idx int
	cl  *bgl.Cluster
}

// newEngine builds the simulated machine of replica slot i. The
// supervisor calls it again to replace a quarantined replica.
func newEngine(cfg Config, i int) (*engine, error) {
	cl, err := bgl.NewCluster(bgl.ClusterConfig{R: cfg.R, C: cfg.C})
	if err != nil {
		return nil, fmt.Errorf("graphd: building replica %d: %w", i, err)
	}
	return &engine{idx: i, cl: cl}, nil
}

// buildEngines builds cfg.Replicas engines and distributes the graph —
// once — for all of them to search.
func buildEngines(cfg Config) ([]*engine, *bgl.DistGraph, error) {
	engines := make([]*engine, cfg.Replicas)
	for i := range engines {
		e, err := newEngine(cfg, i)
		if err != nil {
			return nil, nil, err
		}
		engines[i] = e
	}
	dg, err := engines[0].cl.Distribute(cfg.Graph, bgl.WithPartition(cfg.Partition))
	if err != nil {
		return nil, nil, fmt.Errorf("graphd: distributing the graph: %w", err)
	}
	return engines, dg, nil
}
