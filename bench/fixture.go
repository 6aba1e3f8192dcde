package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	bgl "repro"
)

// fixture is a built workload: the program under test with its inputs
// loaded, ready to run operations.
type fixture interface {
	// prepare generates the op list from the seed and computes the
	// serial oracles every answer is checked against. It is not part of
	// set-up time: a user does not pay for oracles.
	prepare(seed int64, rec *recorder, parent int) oracleTimes
	// op runs operation i on behalf of a client and returns the wall
	// time of the one public call. The answer is checked against the
	// oracle and the counters are read after the clock has stopped. A
	// non-nil error means the op failed (errored, was refused, or
	// disagreed with the oracle) and its latency must not be used.
	op(i, client int, c *counters, rec *recorder) (time.Duration, error)
	close()
}

// buildTimes are the timed parts of one cold fixture build.
type buildTimes struct {
	total, generate, distribute, newServer time.Duration
	storeMB                                float64 // heap pinned by Distribute (engine fixtures)
}

// oracleTimes are the serial oracle timings, in milliseconds: the
// plain single-threaded baselines the engines are compared with.
type oracleTimes struct{ bfsMS, dijkstraMS []float64 }

var errMismatch = errors.New("answer disagrees with the serial oracle")

// counters accumulates what the program reports about the ops of one
// pass: sums by name, and per-query samples for the service.
type counters struct {
	sum     map[string]float64
	samples map[string][]float64
}

func newCounters() *counters {
	return &counters{sum: map[string]float64{}, samples: map[string][]float64{}}
}

func (c *counters) merge(o *counters) {
	for k, v := range o.sum {
		c.sum[k] += v
	}
	for k, v := range o.samples {
		c.samples[k] = append(c.samples[k], v...)
	}
}

// per returns sum[name] per counted op (0 when no op was counted).
func (c *counters) per(name string) float64 {
	if c.sum["ops"] == 0 {
		return 0
	}
	return c.sum[name] / c.sum["ops"]
}

// generate builds the workload's graph from the seed.
func generate(w workload, seed int64) (*bgl.Graph, error) {
	if w.weighted {
		return bgl.GenerateWeighted(w.n, 10, seed, bgl.WithMaxWeight(256))
	}
	return bgl.Generate(w.n, 10, seed)
}

// heapMB forces a collection and returns the live heap in MB.
func heapMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// pickVertices draws k distinct vertices of g's largest component,
// deterministically in rng.
func pickVertices(g *bgl.Graph, k int, rng *rand.Rand) []bgl.Vertex {
	var comp []bgl.Vertex
	for v, l := range g.SerialBFS(g.LargestComponentVertex()) {
		if l != bgl.Unreached {
			comp = append(comp, bgl.Vertex(v))
		}
	}
	rng.Shuffle(len(comp), func(i, j int) { comp[i], comp[j] = comp[j], comp[i] })
	return comp[:min(k, len(comp))]
}

// hashWords folds a label array into 64 bits (FNV-1a over 32-bit
// words), so an oracle costs 8 bytes per source instead of a second
// copy of every label array in the heap the benchmark measures, and a
// check allocates nothing.
func hashWords[T int32 | uint32](xs []T) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range xs {
		h = (h ^ uint64(uint32(x))) * 1099511628211
	}
	return h
}

// timedMS runs fn and returns its wall time in milliseconds.
func timedMS(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds() * 1e3
}

// engineFixture drives the bgl package directly: one cluster, one
// distributed graph, one traversal per op.
type engineFixture struct {
	w       workload
	g       *bgl.Graph
	cl      *bgl.Cluster
	dg      *bgl.DistGraph
	sources []bgl.Vertex
	oracle  []uint64     // hashWords of the serial labels, per source
	lanes   []bgl.Vertex // the multi-source batch of the op in flight
	sim     *bgl.Trace   // simulated-clock spans of the op in flight (traced pass)
}

func buildEngine(w workload, seed int64, rec *recorder, parent int) (*engineFixture, buildTimes, error) {
	var bt buildTimes
	f := &engineFixture{w: w, sim: bgl.NewTrace()}
	var err error
	t0 := time.Now()
	sp := rec.begin("graph.generate", parent, -1, 0)
	f.g, err = generate(w, seed)
	rec.end(sp)
	bt.generate = time.Since(t0)
	if err != nil {
		return nil, bt, err
	}
	before := heapMB()
	t1 := time.Now()
	sp = rec.begin("partition.distribute", parent, -1, 0)
	f.cl, err = bgl.NewCluster(bgl.ClusterConfig{R: w.r, C: w.c})
	if err == nil {
		f.dg, err = f.cl.Distribute(f.g, bgl.WithPartition(w.part))
	}
	rec.end(sp)
	bt.distribute = time.Since(t1)
	if err != nil {
		return nil, bt, err
	}
	bt.storeMB = heapMB() - before
	bt.total = bt.generate + bt.distribute
	return f, bt, nil
}

func (f *engineFixture) prepare(seed int64, rec *recorder, parent int) oracleTimes {
	sp := rec.begin("graph.oracle", parent, -1, 0)
	defer rec.end(sp)
	var ot oracleTimes
	f.sources = pickVertices(f.g, f.w.sources, rand.New(rand.NewSource(seed)))
	f.oracle = make([]uint64, len(f.sources))
	f.lanes = make([]bgl.Vertex, min(multiLanes, len(f.sources)))
	for i, s := range f.sources {
		if f.w.kind == opSSSP {
			ot.dijkstraMS = append(ot.dijkstraMS, timedMS(func() { f.oracle[i] = hashWords(f.g.SerialDijkstra(s)) }))
		} else {
			ot.bfsMS = append(ot.bfsMS, timedMS(func() { f.oracle[i] = hashWords(f.g.SerialBFS(s)) }))
		}
	}
	return ot
}

func (f *engineFixture) close() {}

// searchOpts returns the workload's options, plus the simulated-clock
// trace in the traced pass.
func (f *engineFixture) searchOpts(rec *recorder) []bgl.Option {
	if rec == nil {
		return f.w.opts
	}
	return append(f.w.opts[:len(f.w.opts):len(f.w.opts)], bgl.WithTrace(f.sim))
}

// callSpan names the span around an engine workload's one public call.
var callSpan = [...]string{opBFS: "bfs.run", opSSSP: "sssp.run", opMulti: "bfs.multirun"}

func (f *engineFixture) op(i, _ int, c *counters, rec *recorder) (time.Duration, error) {
	opSpan := rec.begin("bench.op", -1, i, 0)
	defer rec.end(opSpan)
	opts := f.searchOpts(rec)
	j := i % f.w.cycle // the op list repeats after a cycle; i only labels the spans
	call := rec.begin(callSpan[f.w.kind], opSpan, i, 0)
	t0 := time.Now()
	agrees, err := f.call(j, opts, c)
	d := time.Since(t0)
	rec.end(call)
	if err != nil {
		return d, err
	}
	if !agrees() {
		return d, errMismatch
	}
	f.addSim(c, rec)
	return d, nil
}

// call makes op j's one public call. It returns the check of the
// answer against the oracle, to be run once the clock has stopped; the
// check adds the run's own statistics to c when the answer is right.
func (f *engineFixture) call(j int, opts []bgl.Option, c *counters) (agrees func() bool, err error) {
	k := len(f.sources)
	switch f.w.kind {
	case opSSSP:
		res, err := f.cl.SSSP(f.dg, f.sources[j%k], opts...)
		return func() bool {
			if hashWords(res.Dist) != f.oracle[j%k] {
				return false
			}
			c.addSSSP(res)
			return true
		}, err
	case opMulti:
		for l := range f.lanes {
			f.lanes[l] = f.sources[(multiStride*j+l)%k]
		}
		res, err := f.cl.MultiBFS(f.dg, f.lanes, opts...)
		return func() bool {
			for l := range f.lanes {
				if hashWords(res.LaneLevels[l]) != f.oracle[(multiStride*j+l)%k] {
					return false
				}
			}
			c.addBFS(&res.Result)
			return true
		}, err
	default:
		res, err := f.cl.BFS(f.dg, f.sources[j%k], opts...)
		return func() bool {
			if hashWords(res.Levels) != f.oracle[j%k] {
				return false
			}
			c.addBFS(res)
			return true
		}, err
	}
}

func (c *counters) addBFS(r *bgl.Result) {
	s := c.sum
	s["ops"]++
	s["sim_time"] += r.SimTime
	s["sim_comm"] += r.SimComm
	s["sim_overlap"] += r.SimOverlap
	s["words"] += float64(r.TotalExpandWords + r.TotalFoldWords)
	s["expand_words"] += float64(r.TotalExpandWords)
	s["fold_words"] += float64(r.TotalFoldWords)
	s["dups"] += float64(r.TotalDups)
	s["edges"] += float64(r.TotalEdgesScanned)
	s["probes"] += float64(r.HashProbes)
	s["msgs"] += float64(r.MsgsRecv)
	s["hops"] += float64(r.HopsRecv)
	s["max_link_bytes"] += float64(r.MaxLinkBytes)
	s["levels"] += float64(len(r.PerLevel))
	for _, ls := range r.PerLevel {
		if ls.Direction == bgl.BottomUp {
			s["bottomup_levels"]++
		}
	}
}

func (c *counters) addSSSP(r *bgl.SSSPResult) {
	s := c.sum
	s["ops"]++
	s["sim_time"] += r.SimTime
	s["sim_comm"] += r.SimComm
	s["sim_overlap"] += r.SimOverlap
	s["words"] += float64(r.TotalWords())
	s["expand_words"] += float64(r.TotalExpandWords)
	s["fold_words"] += float64(r.TotalFoldWords)
	s["edges"] += float64(r.TotalEdgesScanned)
	s["msgs"] += float64(r.MsgsRecv)
	s["hops"] += float64(r.HopsRecv)
	s["epochs"] += float64(r.Epochs)
	s["buckets"] += float64(r.BucketsDrained)
	s["relaxations"] += float64(r.TotalRelaxations)
	s["resettles"] += float64(r.TotalReSettles)
}

// addSim adds the simulated seconds the op just traced spent inside
// collectives and inside edge scans, on the rank whose clock ended
// last (the one the simulated execution time is read from).
func (f *engineFixture) addSim(c *counters, rec *recorder) {
	if rec == nil {
		return
	}
	var end, coll, scan float64
	for _, rank := range f.sim.Ranks() {
		var e, cl, sc, upto float64
		for _, ev := range rank.Events() {
			e = max(e, ev.T1)
			switch {
			case ev.Cat == "collective" && ev.T0 >= upto: // outermost only
				cl += ev.T1 - ev.T0
				upto = ev.T1
			case ev.Cat == "engine" && ev.Name == "scan":
				sc += ev.T1 - ev.T0
			}
		}
		if e > end {
			end, coll, scan = e, cl, sc
		}
	}
	c.sum["sim_collective"] += coll
	c.sum["sim_scan"] += scan
}

// build makes one cold fixture of the workload.
func build(w workload, seed int64, rec *recorder, parent int) (fx fixture, bt buildTimes, err error) {
	if w.kind == opService {
		fx, bt, err = buildService(w, seed, rec, parent)
	} else {
		fx, bt, err = buildEngine(w, seed, rec, parent)
	}
	if err != nil {
		return nil, bt, fmt.Errorf("building %s: %w", w.name, err)
	}
	return fx, bt, nil
}
