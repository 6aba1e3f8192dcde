package main

import (
	"bufio"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	bgl "repro"
	"repro/internal/collective"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/localindex"
	"repro/internal/pool"
)

// Layer probes: timed calls into each layer's exported functions, on
// inputs sized from the workload's own fixture, made only in the traced
// run. Each runs under a span named after the function it calls.

const probeReps = 5 // a probe reports the median of this many timings

// prober carries what every probe needs: where the metrics go, the
// span recorder, and how long one timing lasts.
type prober struct {
	m    results
	rec  *recorder
	span time.Duration
}

// perCall repeats fn for the probe span and returns the mean
// nanoseconds of one call.
func (p *prober) perCall(fn func()) float64 {
	calls := 0
	t0 := time.Now()
	for calls == 0 || time.Since(t0) < p.span {
		fn()
		calls++
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}

// calls is how many back-to-back calls of about each nanoseconds fill
// the probe span, for loops every rank must agree on beforehand.
func (p *prober) calls(each time.Duration) int { return max(int(p.span/each), 2) }

// measure takes probeReps timings under one span and sets the metric
// to their median.
func (p *prober) measure(metric, span string, timing func() float64) {
	sp := p.rec.begin(span, -1, -1, 0)
	xs := make([]float64, probeReps)
	for i := range xs {
		xs[i] = timing()
	}
	p.rec.end(sp)
	p.m.set(metric, median(xs), probeReps)
}

// runProbes adds the probe metrics of every layer to m.
func runProbes(m results, w workload, fx fixture, base *pass, cfg runConfig, rec *recorder) error {
	p := &prober{m: m, rec: rec, span: cfg.probeSpan}
	rng := rand.New(rand.NewSource(cfg.seed))
	ranks := w.r * w.c

	// The distributed graph the sizes below come from: the engine
	// fixture's own, or — graphd keeps its replicas to itself — one more
	// Distribute of the served graph over the served mesh, which is also
	// what one replica costs to build.
	var g *bgl.Graph
	var dg *bgl.DistGraph
	switch f := fx.(type) {
	case *engineFixture:
		g, dg = f.g, f.dg
	case *serviceFixture:
		g = f.g
		var dist []float64
		for i := 0; i < probeReps; i++ {
			dg = nil // so the heap delta below is one whole store
			before := heapMB()
			sp := rec.begin("partition.distribute", -1, -1, 0)
			t0 := time.Now()
			cl, err := bgl.NewCluster(bgl.ClusterConfig{R: w.r, C: w.c})
			if err == nil {
				dg, err = cl.Distribute(g, bgl.WithPartition(w.part))
			}
			dist = append(dist, time.Since(t0).Seconds()*1e3)
			rec.end(sp)
			if err != nil {
				return err
			}
			m.set("partition.store_mb", heapMB()-before, 1)
		}
		m.set("partition.distribute_ms", median(dist), len(dist))
	}
	mem := dg.Memory()
	var edgeSum, edgeMax float64
	for _, ms := range mem {
		edgeSum += float64(ms.EdgeEntries)
		edgeMax = max(edgeMax, float64(ms.EdgeEntries))
	}
	m.set("partition.edges_max_over_mean", ratio(edgeMax*float64(len(mem)), edgeSum), len(mem))

	// One serial BFS gives the level frontiers the codec sees and the
	// size of the largest per-rank fold.
	owned := (w.n + ranks - 1) / ranks // rank 0 owns [0, owned)
	var byLevel [][]uint32             // rank 0's share of each level's frontier, ascending
	var levelSize []int
	for v, l := range g.SerialBFS(g.LargestComponentVertex()) {
		if l == bgl.Unreached {
			continue
		}
		for int(l) >= len(byLevel) {
			byLevel = append(byLevel, nil)
			levelSize = append(levelSize, 0)
		}
		levelSize[l]++
		if v < owned {
			byLevel[l] = append(byLevel[l], uint32(v))
		}
	}
	foldSize := max(slices.Max(levelSize)/ranks, 64)

	p.localindex(rng, max(mem[0].NonEmptyColumns, 64), foldSize)
	p.frontier(byLevel, owned)
	p.pool()
	if err := p.comm(); err != nil {
		return err
	}
	if err := p.collective(rng); err != nil {
		return err
	}
	switch f := fx.(type) {
	case *engineFixture:
		if w.kind == opMulti {
			return p.multi(f, base)
		}
	case *serviceFixture:
		if !w.mix {
			return p.unbatched(f, base, cfg)
		}
	}
	return nil
}

// localindex times Map.Get on a map of mapSize keys over a stream that
// hits and misses alternately, and SortSet / UnionSorted on sets of the
// largest level's per-rank fold size.
func (p *prober) localindex(rng *rand.Rand, mapSize, foldSize int) {
	idx := localindex.NewMap(mapSize)
	for k := 0; k < mapSize; k++ {
		idx.Put(uint32(2*k), uint32(k)) // even keys present, odd keys absent
	}
	stream := make([]uint32, 1<<12)
	for i := range stream {
		stream[i] = uint32(2*rng.Intn(mapSize) + i&1)
	}
	var sink uint32
	p.measure("localindex.get_ns", "localindex.Map.Get", func() float64 {
		return p.perCall(func() {
			for _, k := range stream {
				v, _ := idx.Get(k)
				sink += v
			}
		}) / float64(len(stream))
	})
	_ = sink

	// A fold receives about two candidates per vertex it keeps.
	raw := make([]uint32, 2*foldSize)
	for i := range raw {
		raw[i] = uint32(rng.Intn(4 * foldSize))
	}
	scratch := make([]uint32, len(raw))
	p.measure("localindex.sortset_ns_per_id", "localindex.SortSet", func() float64 {
		return p.perCall(func() {
			copy(scratch, raw)
			localindex.SortSet(scratch)
		}) / float64(len(raw))
	})

	a, _ := localindex.SortSet(slices.Clone(raw[:foldSize]))
	b, _ := localindex.SortSet(slices.Clone(raw[foldSize:]))
	p.measure("localindex.union_ns_per_id", "localindex.UnionSorted", func() float64 {
		return p.perCall(func() { localindex.UnionSorted(a, b) }) / float64(len(a)+len(b))
	})
}

// frontier times the hybrid codec over every BFS level's frontier
// restricted to rank 0's owned range.
func (p *prober) frontier(byLevel [][]uint32, owned int) {
	ids, words := 0, 0
	encoded := make([][]uint32, len(byLevel))
	for l, set := range byLevel {
		encoded[l] = frontier.EncodeSetStats(set, 0, owned, frontier.WireHybrid, nil)
		ids += len(set)
		words += len(encoded[l])
	}
	if ids == 0 {
		return
	}
	p.m.set("frontier.words_per_id", float64(words)/float64(ids), ids)
	var hist frontier.ContainerHist
	p.measure("frontier.encode_ns_per_id", "frontier.EncodeSetStats", func() float64 {
		return p.perCall(func() {
			for _, set := range byLevel {
				frontier.EncodeSetStats(set, 0, owned, frontier.WireHybrid, &hist)
			}
		}) / float64(ids)
	})
	p.measure("frontier.decode_ns_per_id", "frontier.Decode", func() float64 {
		return p.perCall(func() {
			for _, buf := range encoded {
				frontier.Decode(buf)
			}
		}) / float64(ids)
	})
}

// pool times the dispatch of an empty chunked loop, and a fixed summing
// loop at two workers against one.
func (p *prober) pool() {
	one, two := pool.New(1), pool.New(2)
	const n, grain = 1 << 16, 1024
	p.measure("pool.dispatch_ns_per_chunk", "pool.Run", func() float64 {
		return p.perCall(func() { two.Run(n, grain, func(int, int, int) {}) }) / float64(pool.Chunks(n, grain))
	})

	data := make([]uint32, 1<<20)
	for i := range data {
		data[i] = uint32(i)
	}
	partial := make([]uint64, pool.Chunks(len(data), 1<<14))
	sum := func(workers *pool.Pool) float64 {
		return p.perCall(func() {
			workers.Run(len(data), 1<<14, func(chunk, lo, hi int) {
				var s uint64
				for _, x := range data[lo:hi] {
					s += uint64(x)
				}
				partial[chunk] = s
			})
		})
	}
	p.measure("pool.speedup_w2", "pool.Run.workers2", func() float64 { return ratio(sum(one), sum(two)) })
}

// comm times the runtime under every collective on a 16-rank world:
// starting and joining the ranks, a 64-word round trip between two of
// them, and an all-reduce over all of them.
func (p *prober) comm() error {
	world, err := comm.NewWorld(comm.Config{P: 16})
	if err != nil {
		return err
	}
	run := func(body func(c *comm.Comm)) {
		if _, rerr := world.Run(body); rerr != nil && err == nil {
			err = rerr
		}
	}
	p.measure("comm.world_run_us", "comm.World.Run", func() float64 {
		return p.perCall(func() { run(func(*comm.Comm) {}) }) / 1e3
	})

	trips := p.calls(5 * time.Microsecond)
	msg := make([]uint32, 64)
	p.measure("comm.pingpong_us", "comm.Send+Recv", func() float64 {
		var us float64
		run(func(c *comm.Comm) {
			switch c.Rank() {
			case 0:
				t0 := time.Now()
				for i := 0; i < trips; i++ {
					c.Send(1, 0, msg)
					c.Recv(1, 0)
				}
				us = time.Since(t0).Seconds() * 1e6 / float64(trips)
			case 1:
				for i := 0; i < trips; i++ {
					c.Send(0, 0, c.Recv(0, 0))
				}
			}
		})
		return us
	})
	p.measure("comm.allreduce_us", "comm.AllReduceSum", func() float64 {
		var us float64
		run(func(c *comm.Comm) {
			t0 := time.Now()
			for i := 0; i < trips; i++ {
				c.AllReduceSum(uint64(c.Rank()))
			}
			if c.Rank() == 0 {
				us = time.Since(t0).Seconds() * 1e6 / float64(trips)
			}
		})
		return us
	})
	return err
}

// collective times one call of each exchange the 2D engines use, on the
// 4-member row groups of a 4x4 world with 1k seeded ids per peer, every
// group exchanging at once as in a BFS level.
func (p *prober) collective(rng *rand.Rand) error {
	const perPeer = 1000
	world, err := comm.NewWorld(comm.Config{P: 16})
	if err != nil {
		return err
	}
	mesh, err := comm.NewMesh(4, 4)
	if err != nil {
		return err
	}
	// sets[rank][member]: the ascending set rank sends to that member.
	sets := make([][][]uint32, 16)
	for r := range sets {
		sets[r] = make([][]uint32, 4)
		for mem := range sets[r] {
			raw := make([]uint32, perPeer)
			for i := range raw {
				raw[i] = uint32(rng.Intn(8 * perPeer))
			}
			sets[r][mem], _ = localindex.SortSet(raw)
		}
	}
	calls := p.calls(200 * time.Microsecond)
	var o collective.Opts
	for _, ex := range []struct {
		metric, span string
		call         func(c *comm.Comm, g comm.Group, send [][]uint32)
	}{
		{"collective.alltoall_us", "collective.AllToAll", func(c *comm.Comm, g comm.Group, send [][]uint32) {
			collective.AllToAll(c, g, o, send)
		}},
		{"collective.twophase_fold_us", "collective.TwoPhaseFold", func(c *comm.Comm, g comm.Group, send [][]uint32) {
			collective.TwoPhaseFold(c, g, o, send)
		}},
		{"collective.twophase_expand_us", "collective.TwoPhaseExpand", func(c *comm.Comm, g comm.Group, send [][]uint32) {
			collective.TwoPhaseExpand(c, g, o, send[0])
		}},
		{"collective.fold_async_us", "collective.FoldAsync", func(c *comm.Comm, g comm.Group, send [][]uint32) {
			collective.FoldAsync(c, g, o, "twophase", func(mem int) []uint32 { return send[mem] })
		}},
	} {
		p.measure(ex.metric, ex.span, func() float64 {
			var us float64
			_, rerr := world.Run(func(c *comm.Comm) {
				g := mesh.RowGroup(c.Rank())
				t0 := time.Now()
				for i := 0; i < calls; i++ {
					ex.call(c, g, sets[c.Rank()])
				}
				if c.Rank() == 0 {
					us = time.Since(t0).Seconds() * 1e6 / float64(calls)
				}
			})
			if rerr != nil && err == nil {
				err = rerr
			}
			return us
		})
	}
	return err
}

// multi compares the 64-lane sweep the workload times with the single
// traversals it replaces: 64 top-down hybrid BFS runs on the same 1D
// graph, and a 2-lane sweep against 2 of them — the batch graphd builds
// when two clients arrive together.
func (p *prober) multi(f *engineFixture, base *pass) error {
	lanes := len(f.lanes)
	sp := p.rec.begin("bfs.run.singles", -1, -1, 0)
	singles := make([]float64, lanes)
	for l := range singles {
		var err error
		singles[l] = timedMS(func() { _, err = f.cl.BFS(f.dg, f.sources[l], f.w.opts...) })
		if err != nil {
			return err
		}
	}
	p.rec.end(sp)
	sp = p.rec.begin("bfs.multirun.2lane", -1, -1, 0)
	pairs := make([]float64, lanes/2)
	for i := range pairs {
		var err error
		pairs[i] = timedMS(func() { _, err = f.cl.MultiBFS(f.dg, f.sources[2*i:2*i+2], f.w.opts...) })
		if err != nil {
			return err
		}
	}
	p.rec.end(sp)
	sweep, single := base.opMSP50(), median(singles)
	p.m.set("bfs.multibfs_ms_per_source", sweep/float64(lanes), len(base.latMS))
	p.m.set("bfs.multibfs_over_single", ratio(sweep, float64(lanes)*single), len(singles))
	p.m.set("bfs.multibfs_2lane_over_single", ratio(median(pairs), 2*single), len(pairs))
	return nil
}

// unbatched replays the workload's query list against a true unbatched
// control and reports its throughput over the batched server's, both
// measured in this process. The control is built with MaxBatch: 1 —
// never Window: 0, which graphd's defaults rewrite to the 2 ms window —
// and an explicit MaxWaiting, because the default is 4 x MaxBatch = 4.
func (p *prober) unbatched(f *serviceFixture, base *pass, cfg runConfig) error {
	sp := p.rec.begin("graphd.unbatched", -1, -1, 0)
	defer p.rec.end(sp)
	control := serviceConfig(f.w, f.g)
	control.MaxBatch, control.MaxWaiting = 1, 256
	svc, err := startService(control)
	if err != nil {
		return err
	}
	defer svc.stop()
	u := &serviceFixture{w: f.w, g: f.g, svc: svc, queries: f.queries}
	u.dial()
	runPass(u, f.w.clients, min(f.w.cycle, warmupOps), 0, nil)
	ctl := runPass(u, f.w.clients, f.w.cycle, cfg.seconds/3, nil)
	p.m.set("graphd.unbatched_over_batched_qps", ratio(ctl.opsPerS(), base.opsPerS()), ctl.ok())
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB; 0
// where /proc does not say.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1e3
		}
	}
	return 0
}
