package graphd

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	bgl "repro"
	"repro/internal/metrics"
)

// ErrDraining is returned by batcher.submit once the batcher has begun
// its shutdown drain; the server maps it to a 503.
var ErrDraining = errors.New("graphd: draining")

// sweepStats is the shared cost of one run, reported to every query
// that rode it. Unit and Done say how far it got ("level" for a single
// traversal, "sweep" for a MultiBFS) and Finished when it returned — a
// rider whose own deadline is earlier than that was answered too late.
type sweepStats struct {
	SimExecS float64
	SimCommS float64
	Words    int64
	WallS    float64
	Unit     string
	Done     int
	Finished time.Time
}

// partial renders the run as the progress report of a 504 body.
func (st sweepStats) partial() *PartialStats {
	return &PartialStats{Unit: st.Unit, Done: st.Done, SimExecS: st.SimExecS, WallS: st.WallS}
}

// sweepFunc runs the deduplicated sources on the borrowed engine e and
// returns one level array per source, index-aligned. The batcher owns
// WHEN a run starts, on which engine, and which queries share it; the
// server owns HOW it runs (a direction-optimizing BFS for one source,
// MultiBFS for more) and what becomes of e afterwards — back to the
// pool, or quarantined. deadline is the run's wall budget — the LOOSEST
// rider deadline, zero when any rider is unbounded, because one shared
// sweep cannot stop early for its most impatient rider without robbing
// the patient ones; for a lone query that is its own deadline.
type sweepFunc func(e *engine, sources []bgl.Vertex, deadline time.Time) ([][]int32, sweepStats, error)

// soloFunc runs one path or SSSP query alone on the borrowed engine e
// under the query's own deadline. Like a sweepFunc, it owns how the
// query runs and what becomes of e afterwards.
type soloFunc func(e *engine, deadline time.Time) (sweepStats, error)

// batchAnswer is what a waiting caller receives: its own lane's levels
// (none for a solo job) plus the per-query statistics, or the run's
// error.
type batchAnswer struct {
	levels []int32
	stats  QueryStats
	sweep  sweepStats
	err    error
}

// batchQuery is one waiting caller: a BFS from source, or, when solo is
// set, a solo job that runs alone. deadline is the query's own wall
// budget (zero = unbounded).
type batchQuery struct {
	source   bgl.Vertex
	solo     soloFunc
	enq      time.Time
	deadline time.Time
	lane     int // index of source in its run's sources, set when taken
	done     chan batchAnswer
}

// minSweepLanes is the smallest share worth a MultiBFS sweep. A sweep
// has a large fixed cost and is top-down only: measured on the lab's
// service graph (n = 20000, 2x2, hybrid) a k-lane sweep costs 1.9, 2.7,
// 3.1, 4.1, 3.5, 4.1 and 5.4 direction-optimizing singles at k = 1, 2,
// 3, 4, 5, 8 and 16, so below four lanes the riders are served sooner —
// and the engines kept no busier — one at a time, each by whichever
// engine frees up first.
const minSweepLanes = 4

// batcher is the server's one queue: it paces every query by the
// engines, not by a clock. One dispatcher goroutine waits for a pending
// query, borrows an idle engine — blocking while every engine is busy,
// which is exactly when arrivals pool into a batch — and hands it the
// head of the queue: a solo job alone, or else its share of the
// distinct pending BFS sources: ceil(pending / idle engines), capped at
// maxBatch, and a single source when that is under minSweepLanes. So
// while queries do not outnumber engines each runs alone the moment it
// arrives, and 64 lanes still fill when 64 clients outrun the replicas.
// Duplicate sources share a lane. close drains: every admitted query is
// answered before it returns.
type batcher struct {
	maxBatch int
	engines  chan *engine
	sweep    sweepFunc

	mu      sync.Mutex
	arrived *sync.Cond // signaled on submit and close
	closed  bool
	pending []*batchQuery           // arrival order, every kind
	lanes   map[bgl.Vertex]struct{} // distinct pending BFS sources

	wg sync.WaitGroup // the dispatcher and every run in flight

	batches        atomic.Int64
	batchedQueries atomic.Int64

	mBatches *metrics.Counter
	mQueries *metrics.Counter
	mLanes   *metrics.Histogram
}

// batchLaneBuckets are the upper bounds of the batch-occupancy
// histogram (graphd_batch_lanes): powers of two up to the lane cap.
var batchLaneBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// newBatcher builds a batcher over the engine pool and starts its
// dispatcher; reg may be nil.
func newBatcher(maxBatch int, engines chan *engine, sweep sweepFunc, reg *metrics.Registry) *batcher {
	b := &batcher{
		maxBatch: min(max(maxBatch, 1), bgl.MaxLanes),
		engines:  engines,
		sweep:    sweep,
		lanes:    map[bgl.Vertex]struct{}{},
	}
	b.arrived = sync.NewCond(&b.mu)
	if reg != nil {
		b.mBatches = reg.Counter("graphd_batches_total")
		b.mQueries = reg.Counter("graphd_batched_queries_total")
		b.mLanes = reg.Histogram("graphd_batch_lanes", batchLaneBuckets)
	}
	b.wg.Add(1)
	go b.dispatch()
	return b
}

// submit enqueues q (its source or solo job, and its deadline) and
// returns the channel its answer will arrive on (buffered — a run never
// blocks on a caller).
func (b *batcher) submit(q *batchQuery) (<-chan batchAnswer, error) {
	q.enq, q.done = time.Now(), make(chan batchAnswer, 1)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrDraining
	}
	b.pending = append(b.pending, q)
	if q.solo == nil {
		b.lanes[q.source] = struct{}{}
	}
	b.arrived.Signal()
	return q.done, nil
}

// dispatch is the dispatcher loop: one run per borrowed engine until
// the batcher is closed and nothing is pending.
func (b *batcher) dispatch() {
	defer b.wg.Done()
	for {
		b.mu.Lock()
		for len(b.pending) == 0 && !b.closed {
			b.arrived.Wait()
		}
		drained := len(b.pending) == 0
		b.mu.Unlock()
		if drained {
			return
		}
		// Engine first: whatever arrives while every engine is busy is
		// in the pending set by the time the share is cut.
		e := <-b.engines
		b.mu.Lock()
		b.wg.Add(1)
		if head := b.pending[0]; head.solo != nil { // only this loop removes queries
			b.pending = slices.Delete(b.pending, 0, 1)
			go b.runSolo(e, head)
		} else {
			batch, sources := b.takeLocked(share(len(b.lanes), 1+len(b.engines), b.maxBatch))
			go b.run(e, batch, sources)
		}
		b.mu.Unlock()
	}
}

// share is how many distinct sources the engine just borrowed takes
// when idle engines (itself included) are free: an even split of the
// pending ones, at most maxBatch, and one at a time while the split is
// too small to be worth a sweep.
func share(pending, idle, maxBatch int) int {
	n := min((pending+idle-1)/idle, maxBatch)
	if n < minSweepLanes {
		return 1
	}
	return n
}

// takeLocked removes the n earliest distinct BFS sources from the
// pending set, with every query waiting on one of them, and returns the
// queries and the sources (lane order); solo jobs stay where they are.
// Callers hold b.mu.
func (b *batcher) takeLocked(n int) ([]*batchQuery, []bgl.Vertex) {
	lane := make(map[bgl.Vertex]int, n)
	sources := make([]bgl.Vertex, 0, n)
	var batch []*batchQuery
	rest := b.pending[:0]
	for _, q := range b.pending {
		l, taken := lane[q.source]
		if q.solo != nil {
			taken = false
		} else if !taken && len(sources) < n {
			l, taken = len(sources), true
			lane[q.source] = l
			sources = append(sources, q.source)
			delete(b.lanes, q.source)
		}
		if taken {
			q.lane = l
			batch = append(batch, q)
		} else {
			rest = append(rest, q)
		}
	}
	clear(b.pending[len(rest):])
	b.pending = rest
	return batch, sources
}

// batchDeadline is the wall budget one shared run executes under: the
// LOOSEST rider deadline, or zero (unbounded) when any rider is
// unbounded. A tighter rider deadline is judged against the run's
// finish time when the answer is delivered.
func batchDeadline(batch []*batchQuery) time.Time {
	var dl time.Time
	for _, q := range batch {
		if q.deadline.IsZero() {
			return time.Time{}
		}
		if q.deadline.After(dl) {
			dl = q.deadline
		}
	}
	return dl
}

// run executes one share on engine e: sweep the sources, then
// demultiplex each lane's levels back to its waiting caller(s). The
// demux loop runs under a recover of its own: a panic while answering
// one query (a short levels array) must not strand the other riders of
// the sweep without an answer — they get a descriptive error instead.
func (b *batcher) run(e *engine, batch []*batchQuery, sources []bgl.Vertex) {
	defer b.wg.Done()
	answered := 0
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("graphd: batch demux panicked: %v", r)
			for _, q := range batch[answered:] {
				q.done <- batchAnswer{err: err}
			}
		}
	}()
	start := time.Now()
	levels, st, err := b.sweep(e, sources, batchDeadline(batch))
	b.batches.Add(1)
	b.batchedQueries.Add(int64(len(batch)))
	if b.mBatches != nil {
		b.mBatches.Inc()
		b.mQueries.Add(int64(len(batch)))
		b.mLanes.Observe(float64(len(sources)))
	}
	for _, q := range batch {
		ans := batchAnswer{sweep: st, err: err}
		if err == nil {
			ans.levels = levels[q.lane]
			ans.stats = queryStats(st, start.Sub(q.enq), len(batch), len(sources))
		}
		q.done <- ans
		answered++
	}
}

// runSolo executes one solo job alone on engine e. It is not a batch:
// the batch counters and the lane histogram count BFS shares only.
func (b *batcher) runSolo(e *engine, q *batchQuery) {
	defer b.wg.Done()
	start := time.Now()
	st, err := q.solo(e, q.deadline)
	q.done <- batchAnswer{sweep: st, err: err, stats: queryStats(st, start.Sub(q.enq), 1, 1)}
}

// queryStats are the QueryStats of one query that waited wait for the
// run st of size queries over lanes sources.
func queryStats(st sweepStats, wait time.Duration, size, lanes int) QueryStats {
	return QueryStats{
		QueueWaitS: wait.Seconds(), BatchSize: size, BatchLanes: lanes,
		SimExecS: st.SimExecS, SimCommS: st.SimCommS, Words: st.Words, WallS: st.WallS,
	}
}

// close drains the batcher: no new query is admitted, the dispatcher
// runs the pending ones as engines free up — a query admitted before
// shutdown always gets its answer — and close blocks until every run
// has delivered.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	b.arrived.Signal()
	b.mu.Unlock()
	b.wg.Wait()
}

// Batches and BatchedQueries report lifetime totals (their ratio is
// the realized mean batch size — the service's coalescing win).
func (b *batcher) Batches() int64        { return b.batches.Load() }
func (b *batcher) BatchedQueries() int64 { return b.batchedQueries.Load() }
