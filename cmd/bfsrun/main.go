// Command bfsrun executes one distributed BFS or s→t search with every
// knob exposed: mesh shape, expand/fold collectives, sent-neighbors
// cache, fixed buffer size, torus mapping and cost model. It validates
// the distributed result against the serial oracle and prints the
// per-level statistics the paper reports. README.md ("Options, and why
// each exists") says what motivates each flag and where a non-default
// value is measured.
//
// Flags, by what they set:
//
//	workload     -n -k -seed -input -shuffle -wdist -maxw
//	machine      -r -c -part -rowmajor -cluster -cores -workers
//	query        -algo -source -target -bidir -sources -delta
//	algorithm    -expand -fold -direction -wire -async -sentcache -chunk
//	robustness   -fault -checkpoint -kill-at -restore
//	output       -verify -json -trace -metrics -cpuprofile -memprofile
//
// With -algo sssp it instead runs distributed Δ-stepping shortest
// paths on a weighted graph (generated by -wdist/-maxw or loaded from
// a weighted edge list) and validates against the serial Dijkstra
// oracle.
//
// With -part it distributes under any of the Table 1 partitionings
// (2d, 1drow, 1dcol) — the same search entry points dispatch to the
// matching engine. With -sources a,b,c it runs one batched
// multi-source BFS (one bit-lane per source, up to 64) and validates
// every lane against the serial oracle.
//
// Usage:
//
//	bfsrun -n 100000 -k 10 -r 4 -c 4
//	bfsrun -n 100000 -k 10 -r 1 -c 16 -target 99 -bidir
//	bfsrun -n 50000 -k 50 -r 4 -c 4 -expand allgather -fold direct -sentcache=false
//	bfsrun -n 100000 -k 10 -part 1dcol
//	bfsrun -n 100000 -k 10 -sources 3,99,1024 -wire hybrid
//	bfsrun -algo sssp -n 100000 -k 10 -r 4 -c 4 -delta 25 -wire hybrid -part 1drow
//	bfsrun -algo sssp -delta inf -wdist exp -maxw 1000
//
// Robustness: -fault injects a seeded deterministic fault plan into
// the simulated transport (the Result stays identical to the
// fault-free run; only simulated times and the fault counters change).
// -checkpoint FILE -kill-at N halts after N completed levels (BFS) or
// epochs (SSSP), writes every rank's state to FILE, and exits;
// -restore FILE resumes such a run to a byte-identical Result.
//
//	bfsrun -n 100000 -k 10 -fault canned
//	bfsrun -n 100000 -k 10 -fault seed=7,corrupt=0.01,drop=0.01
//	bfsrun -n 100000 -k 10 -checkpoint snap.ckpt -kill-at 4
//	bfsrun -n 100000 -k 10 -restore snap.ckpt
//
// Observability: -trace out.json records every simulated-clock span
// (send/recv/barrier costs, collective rounds, engine phases) and
// writes a Chrome trace-event export loadable in Perfetto; before
// writing, the span stream is re-checked against the clock invariant
// and cross-checked against the run's own statistics. -metrics writes
// a counter/gauge/histogram snapshot, and -cpuprofile/-memprofile
// capture pprof profiles of the host process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	bgl "repro"
	"repro/internal/trace"
	"repro/internal/traceverify"
)

func main() {
	var (
		algo     = flag.String("algo", "bfs", "algorithm: bfs|sssp (Δ-stepping shortest paths)")
		deltaStr = flag.String("delta", "auto", "sssp bucket width Δ: auto|inf|<uint32>")
		wdist    = flag.String("wdist", "uniform", "sssp edge-weight distribution: uniform|exp|unit")
		maxw     = flag.Uint("maxw", 0, "sssp maximum edge weight (0 = default)")
		n        = flag.Int("n", 100000, "vertices")
		k        = flag.Float64("k", 10, "expected average degree")
		seed     = flag.Int64("seed", 42, "graph seed")
		input    = flag.String("input", "", "load graph from an edge-list file instead of generating")
		shuffle  = flag.Bool("shuffle", false, "relabel vertices randomly before distributing")
		r        = flag.Int("r", 4, "mesh rows R")
		c        = flag.Int("c", 4, "mesh columns C")
		partStr  = flag.String("part", "2d", "partitioning: 2d|1drow|1dcol (Table 1)")
		sources  = flag.String("sources", "", "comma-separated sources for one batched multi-source BFS (<= 64 lanes)")
		source   = flag.Int("source", -1, "source vertex (-1 = a largest-component vertex)")
		target   = flag.Int("target", -1, "target vertex (-1 = full traversal)")
		bidir    = flag.Bool("bidir", false, "bi-directional search (requires -target)")
		expand   = flag.String("expand", "targeted", "expand collective: targeted|allgather|twophase")
		fold     = flag.String("fold", "twophase", "fold collective: twophase|direct|nounion")
		dir      = flag.String("direction", "topdown", "traversal direction: topdown|bottomup|dirop")
		wire     = flag.String("wire", "sparse", "frontier wire encoding: sparse|dense|auto|hybrid")
		async    = flag.Bool("async", true, "overlapped exchange schedule (-async=false for the phase-synchronous baseline)")
		cache    = flag.Bool("sentcache", true, "sent-neighbors cache (§2.4.3)")
		chunk    = flag.Int("chunk", 16384, "fixed message buffer in words (0 = unchunked)")
		rowMaj   = flag.Bool("rowmajor", false, "row-major torus mapping instead of Figure 1 planes")
		cluster  = flag.Bool("cluster", false, "Quadrics-cluster cost model instead of BlueGene/L")
		verify   = flag.Bool("verify", true, "check against the serial oracle")
		jsonOut  = flag.Bool("json", false, "emit the result as JSON (levels omitted) instead of text")
		faultStr = flag.String("fault", "", "inject a deterministic fault plan: key=value spec or canned[:SEED]")
		ckptOut  = flag.String("checkpoint", "", "halt at -kill-at and write the snapshot to this file")
		killAt   = flag.Int("kill-at", -1, "completed levels (bfs) / epochs (sssp) before the -checkpoint halt")
		restore  = flag.String("restore", "", "resume from a snapshot written by -checkpoint")
		traceOut = flag.String("trace", "", "write a verified Chrome trace-event span export to this file (load in Perfetto)")
		metrOut  = flag.String("metrics", "", "write a metrics snapshot to this file after the run (- for stdout; .json suffix selects JSON)")
		cores    = flag.Int("cores", 1, "modeled compute cores per node: divides pool-loop charges (2 = BG/L virtual-node mode) and sizes the worker pool")
		workers  = flag.Int("workers", 0, "real per-rank worker pool size (0 = -cores); wall-clock only, results bit-identical")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the host process to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fail(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
		}()
	}

	var spanRec *bgl.Trace
	if *traceOut != "" {
		spanRec = bgl.NewTrace()
	}
	var registry *bgl.Metrics
	if *metrOut != "" {
		registry = bgl.NewMetrics()
	}
	var obs []bgl.Option
	obs = append(obs, bgl.WithCores(*cores))
	if *workers > 0 {
		obs = append(obs, bgl.WithWorkers(*workers))
	}
	// effWorkers is the pool size the run actually uses (-workers
	// defaults to -cores); reported in every -json shape.
	effWorkers := *workers
	if effWorkers == 0 {
		effWorkers = *cores
	}
	if spanRec != nil {
		obs = append(obs, bgl.WithTrace(spanRec))
	}
	if registry != nil {
		obs = append(obs, bgl.WithMetrics(registry))
	}
	if *faultStr != "" {
		plan, err := bgl.ParseFaultPlan(*faultStr)
		if err != nil {
			fail(err)
		}
		obs = append(obs, bgl.WithFault(plan))
	}
	if (*ckptOut == "") != (*killAt < 0) {
		fail(fmt.Errorf("-checkpoint and -kill-at must be given together"))
	}
	var ckptPlan *bgl.CheckpointPlan
	if *ckptOut != "" {
		switch {
		case *traceOut != "":
			fail(fmt.Errorf("-checkpoint cannot combine with -trace: a restored run's spans cannot tile the clock from zero"))
		case *restore != "":
			fail(fmt.Errorf("-checkpoint and -restore cannot combine in one run"))
		}
		ckptPlan = bgl.NewCheckpoint(*killAt)
		obs = append(obs, bgl.WithCheckpoint(ckptPlan))
	}
	if *restore != "" {
		if *traceOut != "" {
			fail(fmt.Errorf("-restore cannot combine with -trace: a restored run's spans cannot tile the clock from zero"))
		}
		snap, err := bgl.ReadCheckpoint(*restore)
		if err != nil {
			fail(err)
		}
		obs = append(obs, bgl.WithRestore(snap))
	}
	// writeSnap persists the collected snapshot after a -checkpoint run
	// (which returns a deliberately partial Result not worth printing).
	writeSnap := func() {
		snap := ckptPlan.Snapshot()
		if snap == nil {
			fail(fmt.Errorf("run completed before reaching -kill-at %d; nothing to checkpoint", *killAt))
		}
		if err := bgl.WriteCheckpoint(*ckptOut, snap); err != nil {
			fail(err)
		}
		fmt.Printf("checkpoint: %s snapshot at %d written to %s (%d ranks)\n",
			snap.Kind, snap.At, *ckptOut, snap.P)
	}
	// finishObs exports and self-checks the trace (clock invariant
	// re-derivation plus the engine cross-check) and writes the metrics
	// snapshot. Called once after whichever algorithm ran.
	finishObs := func(crossCheck func(*trace.Derived) error) {
		if spanRec != nil {
			data, d, err := traceverify.Export(spanRec)
			if err != nil {
				fail(fmt.Errorf("trace self-check failed: %w", err))
			}
			if err := crossCheck(d); err != nil {
				fail(fmt.Errorf("trace does not match the run's statistics: %w", err))
			}
			if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "trace: verified %d-rank span export written to %s (%d bytes)\n",
				len(d.Ranks), *traceOut, len(data))
		}
		if registry != nil {
			snap := []byte(registry.Text())
			if strings.HasSuffix(*metrOut, ".json") {
				snap = registry.JSON()
			}
			if *metrOut == "-" {
				os.Stdout.Write(snap)
			} else if err := os.WriteFile(*metrOut, snap, 0o644); err != nil {
				fail(err)
			}
		}
	}

	expAlg, ok := map[string]bgl.ExpandAlg{
		"targeted": bgl.ExpandTargeted, "allgather": bgl.ExpandAllGather, "twophase": bgl.ExpandTwoPhase,
	}[*expand]
	if !ok {
		fail(fmt.Errorf("unknown expand algorithm %q", *expand))
	}
	foldAlg, ok := map[string]bgl.FoldAlg{
		"twophase": bgl.FoldTwoPhase, "direct": bgl.FoldDirect, "nounion": bgl.FoldTwoPhaseNoUnion,
	}[*fold]
	if !ok {
		fail(fmt.Errorf("unknown fold algorithm %q", *fold))
	}
	dirPolicy, ok := map[string]bgl.Direction{
		"topdown": bgl.TopDown, "bottomup": bgl.BottomUp, "dirop": bgl.DirectionOptimizing,
	}[*dir]
	if !ok {
		fail(fmt.Errorf("unknown direction policy %q", *dir))
	}
	wireMode, ok := map[string]bgl.WireMode{
		"sparse": bgl.WireSparse, "dense": bgl.WireDense, "auto": bgl.WireAuto, "hybrid": bgl.WireHybrid,
	}[*wire]
	if !ok {
		fail(fmt.Errorf("unknown wire encoding %q", *wire))
	}
	part, ok := map[string]bgl.Partition{
		"2d": bgl.Part2D, "1drow": bgl.Part1DRow, "1dcol": bgl.Part1DCol,
	}[*partStr]
	if !ok {
		fail(fmt.Errorf("unknown partitioning %q", *partStr))
	}

	if *algo != "bfs" && *algo != "sssp" {
		fail(fmt.Errorf("unknown algorithm %q", *algo))
	}
	runSSSP := *algo == "sssp"

	var g *bgl.Graph
	var err error
	switch {
	case *input != "":
		f, ferr := os.Open(*input)
		if ferr != nil {
			fail(ferr)
		}
		g, err = bgl.Load(f) // weighted inputs keep their third column
		f.Close()
	case runSSSP:
		wd, ok := map[string]bgl.WeightDist{
			"uniform": bgl.WeightUniform, "exp": bgl.WeightExponential, "unit": bgl.WeightUnit,
		}[*wdist]
		if !ok {
			fail(fmt.Errorf("unknown weight distribution %q", *wdist))
		}
		g, err = bgl.GenerateWeighted(*n, *k, *seed,
			bgl.WithWeightDist(wd), bgl.WithMaxWeight(uint32(*maxw)))
	default:
		g, err = bgl.Generate(*n, *k, *seed)
	}
	if err != nil {
		fail(err)
	}
	if *shuffle {
		g, _ = g.Relabel(*seed)
	}
	mapping := bgl.MapPlanes
	if *rowMaj {
		mapping = bgl.MapRowMajor
	}
	cl, err := bgl.NewCluster(bgl.ClusterConfig{
		R: *r, C: *c, Mapping: mapping, ClusterModel: *cluster,
	})
	if err != nil {
		fail(err)
	}
	dg, err := cl.Distribute(g, bgl.WithPartition(part))
	if err != nil {
		fail(err)
	}

	src := bgl.Vertex(*source)
	if *source < 0 {
		src = g.LargestComponentVertex()
	}

	if *sources != "" {
		switch {
		case runSSSP:
			fail(fmt.Errorf("-sources runs a multi-source BFS and cannot combine with -algo sssp"))
		case *target >= 0 || *bidir:
			fail(fmt.Errorf("-sources runs full multi-source traversals and cannot combine with -target/-bidir"))
		case *source >= 0:
			fail(fmt.Errorf("-sources and -source conflict; list every source in -sources"))
		}
		runMulti(g, cl, dg, *sources, wireMode, *chunk, *cores, effWorkers, *async, *verify, *jsonOut, obs,
			func(res *bgl.MultiResult) {
				finishObs(func(d *trace.Derived) error { return traceverify.BFS(d, &res.Result) })
			})
		return
	}

	if runSSSP {
		delta := uint32(0)
		switch *deltaStr {
		case "auto":
		case "inf":
			delta = bgl.DeltaInf
		default:
			d64, derr := strconv.ParseUint(*deltaStr, 10, 32)
			if derr != nil {
				fail(fmt.Errorf("bad -delta %q: %v", *deltaStr, derr))
			}
			delta = uint32(d64)
		}
		res, err := cl.SSSP(dg, src,
			append([]bgl.Option{bgl.WithDelta(delta), bgl.WithWire(wireMode),
				bgl.WithChunkWords(*chunk), bgl.WithAsync(*async)}, obs...)...)
		if err != nil {
			fail(err)
		}
		finishObs(func(d *trace.Derived) error { return traceverify.SSSP(d, res) })
		if ckptPlan != nil {
			writeSnap()
			return
		}
		if *jsonOut {
			out := *res
			out.Dist, out.PerRank = nil, nil
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(struct {
				N          int
				K          float64
				Seed       int64
				Wire       string
				Cores      int
				Workers    int
				HiddenFrac float64
				*bgl.SSSPResult
			}{g.N(), *k, *seed, wireMode.String(), *cores, effWorkers,
				hiddenFrac(out.SimOverlap, out.SimComm), &out}); err != nil {
				fail(err)
			}
			return
		}
		minW, maxW := g.EdgeWeightRange()
		fmt.Printf("graph: n=%d k=%.3g (%d edges, weights [%d,%d]) | mesh %dx%d (P=%d) part=%s | sssp delta=%d wire=%s chunk=%d async=%v\n",
			g.N(), g.AvgDegree(), g.NumEdges(), minW, maxW, *r, *c, cl.P(), dg.Partition(), res.Delta, wireMode, *chunk, *async)
		fmt.Printf("traversal from %d: reached %d vertices, max distance %d\n",
			src, res.Reached(), res.MaxDistance())
		fmt.Printf("simulated: exec %.6fs, comm %.6fs (%.1f%%), overlap %.6fs hidden (%.1f%% of comm) | wall %v\n",
			res.SimTime, res.SimComm, safePct(res.SimComm, res.SimTime),
			res.SimOverlap, safePct(res.SimOverlap, res.SimComm), res.Wall)
		fmt.Printf("volumes: expand %d words, fold %d words | buckets %d, epochs %d, relaxations %d, re-settles %d\n",
			res.TotalExpandWords, res.TotalFoldWords, res.BucketsDrained, res.Epochs,
			res.TotalRelaxations, res.TotalReSettles)
		printFaults(res.Faults)
		fmt.Println("\nepoch  bucket  phase  active  expand-words  fold-words  relax  re-settle  edges-scanned")
		for _, es := range res.PerEpoch {
			fmt.Printf("%5d  %6d  %-5s  %6d  %12d  %10d  %5d  %9d  %13d\n",
				es.Epoch, es.Bucket, es.Phase, es.Active, es.ExpandWords, es.FoldWords,
				es.Relaxations, es.ReSettles, es.EdgesScanned)
		}
		if *verify {
			want := g.SerialDijkstra(src)
			for v, d := range res.Dist {
				if d != want[v] {
					fail(fmt.Errorf("VERIFY FAILED: dist[%d] = %d, serial dijkstra %d", v, d, want[v]))
				}
			}
			fmt.Println("\nverified against serial Dijkstra oracle: OK")
		}
		return
	}

	opts := append([]bgl.Option{
		bgl.WithExpand(expAlg), bgl.WithFold(foldAlg),
		bgl.WithDirection(dirPolicy), bgl.WithWire(wireMode),
		bgl.WithSentCache(*cache), bgl.WithChunkWords(*chunk),
		bgl.WithAsync(*async),
	}, obs...)

	var res *bgl.Result
	switch {
	case *target >= 0 && *bidir:
		res, err = cl.BiSearch(dg, src, bgl.Vertex(*target), opts...)
	case *target >= 0:
		res, err = cl.Search(dg, src, bgl.Vertex(*target), opts...)
	default:
		res, err = cl.BFS(dg, src, opts...)
	}
	if err != nil {
		fail(err)
	}
	finishObs(func(d *trace.Derived) error { return traceverify.BFS(d, res) })
	if ckptPlan != nil {
		writeSnap()
		return
	}

	if *jsonOut {
		out := *res
		out.Levels, out.PerRank = nil, nil
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			N          int
			K          float64
			Seed       int64
			Expand     string
			Fold       string
			Direction  string
			Wire       string
			Cache      bool
			Chunk      int
			Cores      int
			Workers    int
			HiddenFrac float64
			*bgl.Result
		}{g.N(), *k, *seed, *expand, *fold, dirPolicy.String(), wireMode.String(), *cache, *chunk,
			*cores, effWorkers, hiddenFrac(out.SimOverlap, out.SimComm), &out}); err != nil {
			fail(err)
		}
		return
	}

	fmt.Printf("graph: n=%d k=%.3g (%d edges) | mesh %dx%d (P=%d) part=%s | expand=%s fold=%s dir=%s wire=%s cache=%v chunk=%d async=%v\n",
		g.N(), g.AvgDegree(), g.NumEdges(), *r, *c, cl.P(), dg.Partition(), *expand, *fold, dirPolicy, wireMode, *cache, *chunk, *async)
	if *target >= 0 {
		fmt.Printf("search %d -> %d: found=%v distance=%d\n", src, *target, res.Found, res.Distance)
	} else {
		fmt.Printf("traversal from %d: reached %d vertices, max level %d\n",
			src, res.Reached(), res.MaxLevel())
	}
	fmt.Printf("simulated: exec %.6fs, comm %.6fs (%.1f%%), overlap %.6fs hidden (%.1f%% of comm) | wall %v\n",
		res.SimTime, res.SimComm, safePct(res.SimComm, res.SimTime),
		res.SimOverlap, safePct(res.SimOverlap, res.SimComm), res.Wall)
	fmt.Printf("volumes: expand %d words, fold %d words, dups eliminated %d (redundancy %.1f%%), hash probes %d\n",
		res.TotalExpandWords, res.TotalFoldWords, res.TotalDups, res.RedundancyRatio(), res.HashProbes)
	fmt.Printf("network: %d messages, %.2f avg hops, load imbalance %.3f\n",
		res.MsgsRecv, res.AvgHopsPerMessage(), res.LoadImbalance())
	printFaults(res.Faults)
	showContainers := res.Containers.Payloads() > 0
	if showContainers {
		c := res.Containers
		fmt.Printf("containers: payloads raw=%d dense=%d hybrid=%d | chunks empty=%d list=%d bitmap=%d runs=%d packed=%d\n",
			c.RawPayloads, c.DensePayloads, c.HybridPayloads,
			c.EmptyChunks, c.ListChunks, c.BitmapChunks, c.RunChunks, c.PackedChunks)
	}
	header := "\nlevel  dir       frontier  expand-words  fold-words  dups  marked  edges-scanned  overlap-ms  hidden%"
	if showContainers {
		header += "  containers raw/dense/hyb (chunks e/l/b/r/p)"
	}
	fmt.Println(header)
	for _, ls := range res.PerLevel {
		fmt.Printf("%5d  %-8s  %8d  %12d  %10d  %4d  %6d  %13d  %10.4f  %7.1f",
			ls.Level, ls.Direction, ls.Frontier, ls.ExpandWords, ls.FoldWords, ls.Dups, ls.Marked, ls.EdgesScanned,
			1e3*ls.OverlapS, 100*ls.HiddenFrac())
		if showContainers {
			c := ls.Containers
			fmt.Printf("  %d/%d/%d (%d/%d/%d/%d/%d)",
				c.RawPayloads, c.DensePayloads, c.HybridPayloads,
				c.EmptyChunks, c.ListChunks, c.BitmapChunks, c.RunChunks, c.PackedChunks)
		}
		fmt.Println()
	}

	if *verify {
		serial := g.SerialBFS(src)
		if *target >= 0 {
			want := g.SerialDistance(src, bgl.Vertex(*target))
			okDist := (want == bgl.Unreached && !res.Found) || (res.Found && res.Distance == want)
			if !okDist {
				fail(fmt.Errorf("VERIFY FAILED: distance %d (found=%v), serial %d", res.Distance, res.Found, want))
			}
		} else {
			for v, want := range serial {
				if res.Levels[v] != want {
					fail(fmt.Errorf("VERIFY FAILED: level[%d] = %d, serial %d", v, res.Levels[v], want))
				}
			}
		}
		fmt.Println("\nverified against serial oracle: OK")
	}
}

// runMulti parses the -sources list, runs one batched multi-source
// BFS, prints per-sweep statistics, and validates every lane against
// the serial oracle.
func runMulti(g *bgl.Graph, cl *bgl.Cluster, dg *bgl.DistGraph, list string, wire bgl.WireMode, chunk, cores, workers int,
	async, verify, jsonOut bool, obs []bgl.Option, finish func(*bgl.MultiResult)) {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var srcs []bgl.Vertex
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			fail(fmt.Errorf("bad -sources entry %q: %v", f, err))
		}
		srcs = append(srcs, bgl.Vertex(v))
	}
	res, err := cl.MultiBFS(dg, srcs,
		append([]bgl.Option{bgl.WithWire(wire), bgl.WithChunkWords(chunk), bgl.WithAsync(async)}, obs...)...)
	if err != nil {
		fail(err)
	}
	finish(res)
	if jsonOut {
		out := *res
		out.Levels, out.LaneLevels, out.PerRank = nil, nil, nil
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			N          int
			Wire       string
			Part       string
			Cores      int
			Workers    int
			HiddenFrac float64
			*bgl.MultiResult
		}{g.N(), wire.String(), dg.Partition().String(), cores, workers,
			hiddenFrac(out.SimOverlap, out.SimComm), &out}); err != nil {
			fail(err)
		}
		return
	}
	r, c := cl.Mesh()
	fmt.Printf("graph: n=%d k=%.3g (%d edges) | mesh %dx%d (P=%d) part=%s | multi-bfs b=%d wire=%s chunk=%d\n",
		g.N(), g.AvgDegree(), g.NumEdges(), r, c, cl.P(), dg.Partition(), res.B, wire, chunk)
	fmt.Printf("simulated: exec %.6fs, comm %.6fs (%.1f%%) | wall %v\n",
		res.SimTime, res.SimComm, safePct(res.SimComm, res.SimTime), res.Wall)
	fmt.Printf("volumes: expand %d words, fold %d words over %d sweeps (lane merges %d)\n",
		res.TotalExpandWords, res.TotalFoldWords, len(res.PerLevel), res.TotalDups)
	fmt.Println("\nsweep  frontier  expand-words  fold-words  lane-labels  edges-scanned")
	for _, ls := range res.PerLevel {
		fmt.Printf("%5d  %8d  %12d  %10d  %11d  %13d\n",
			ls.Level, ls.Frontier, ls.ExpandWords, ls.FoldWords, ls.Marked, ls.EdgesScanned)
	}
	fmt.Println("\nlane  source  reached  max-level")
	for lane, src := range res.Sources {
		reached, maxL := 0, int32(0)
		for _, l := range res.LaneLevels[lane] {
			if l != bgl.Unreached {
				reached++
				if l > maxL {
					maxL = l
				}
			}
		}
		fmt.Printf("%4d  %6d  %7d  %9d\n", lane, src, reached, maxL)
	}
	if verify {
		for lane, src := range res.Sources {
			want := g.SerialBFS(src)
			for v, l := range want {
				if res.LaneLevels[lane][v] != l {
					fail(fmt.Errorf("VERIFY FAILED: lane %d level[%d] = %d, serial %d",
						lane, v, res.LaneLevels[lane][v], l))
				}
			}
		}
		fmt.Printf("\nverified %d lanes against the serial oracle: OK\n", res.B)
	}
}

// printFaults reports the transport's fault/recovery counters when a
// -fault plan injected anything.
func printFaults(fs bgl.FaultStats) {
	if fs.Injected() == 0 && fs.Retries == 0 && fs.DupsDiscarded == 0 {
		return
	}
	fmt.Printf("faults: injected corrupt=%d drop=%d dup=%d delay=%d outage-holds=%d | recovered retries=%d checksum-fails=%d dups-discarded=%d (%.6fs sim retry time)\n",
		fs.InjCorrupt, fs.InjDrop, fs.InjDuplicate, fs.InjDelay, fs.InjOutage,
		fs.Retries, fs.ChecksumFails, fs.DupsDiscarded, fs.RetrySeconds)
}

func safePct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}

// hiddenFrac is the fraction of the run's communication seconds that
// progressed under concurrent activity (0 when there was none).
func hiddenFrac(overlap, comm float64) float64 {
	if comm == 0 {
		return 0
	}
	return overlap / comm
}
