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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	bgl "repro"
	"repro/internal/trace"
	"repro/internal/traceverify"
)

// errUsage marks a command-line error the flag package has already
// reported on stderr.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// report is what a finished search hands the tail every output shape
// (BFS, -algo sssp, -sources) shares: check, then print.
type report struct {
	// crossCheck holds a recorded trace against the run's own statistics.
	crossCheck func(*trace.Derived) error
	// verify compares the result with the serial oracle and returns the
	// line a match prints.
	verify func() (string, error)
	// doc is the -json document, text writes the report a reader gets.
	doc  any
	text func(w io.Writer)
}

// setup is what the three searches share: the workload, the machine
// and the options every family takes.
type setup struct {
	g       *bgl.Graph
	cl      *bgl.Cluster
	dg      *bgl.DistGraph
	k       float64
	seed    int64
	wire    bgl.WireMode
	chunk   int
	cores   int
	workers int // the pool size the run uses: -workers, or -cores when 0
	async   bool
	// opts carries -wire, -chunk, -async and the machine, robustness and
	// observability options.
	opts []bgl.Option
}

// run is the command: it parses args, runs one search, checks it
// against the serial oracle and then writes the report to stdout (the
// text tables, or the -json document with the "verified" line moved to
// stderr). Every failure — a bad flag, a failed run, an oracle mismatch
// — comes back as the error, with nothing on stdout.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("bfsrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		algo     = fs.String("algo", "bfs", "algorithm: bfs|sssp (Δ-stepping shortest paths)")
		deltaStr = fs.String("delta", "auto", "sssp bucket width Δ: auto|inf|<uint32>")
		wdist    = fs.String("wdist", "uniform", "sssp edge-weight distribution: uniform|exp|unit")
		maxw     = fs.Uint("maxw", 0, "sssp maximum edge weight (0 = default)")
		n        = fs.Int("n", 100000, "vertices")
		k        = fs.Float64("k", 10, "expected average degree")
		seed     = fs.Int64("seed", 42, "graph seed")
		input    = fs.String("input", "", "load graph from an edge-list file instead of generating")
		shuffle  = fs.Bool("shuffle", false, "relabel vertices randomly before distributing")
		r        = fs.Int("r", 4, "mesh rows R")
		c        = fs.Int("c", 4, "mesh columns C")
		partStr  = fs.String("part", "2d", "partitioning: 2d|1drow|1dcol (Table 1)")
		sources  = fs.String("sources", "", "comma-separated sources for one batched multi-source BFS (<= 64 lanes)")
		source   = fs.Int("source", -1, "source vertex (-1 = a largest-component vertex)")
		target   = fs.Int("target", -1, "target vertex (-1 = full traversal)")
		bidir    = fs.Bool("bidir", false, "bi-directional search (requires -target)")
		expand   = fs.String("expand", "targeted", "expand collective: targeted|allgather|twophase")
		fold     = fs.String("fold", "twophase", "fold collective: twophase|direct|nounion")
		dir      = fs.String("direction", "topdown", "traversal direction: topdown|bottomup|dirop")
		wire     = fs.String("wire", "sparse", "frontier wire encoding: sparse|dense|auto|hybrid")
		async    = fs.Bool("async", true, "overlapped exchange schedule (-async=false for the phase-synchronous baseline)")
		cache    = fs.Bool("sentcache", true, "sent-neighbors cache (§2.4.3)")
		chunk    = fs.Int("chunk", 16384, "fixed message buffer in words (0 = unchunked)")
		rowMaj   = fs.Bool("rowmajor", false, "row-major torus mapping instead of Figure 1 planes")
		cluster  = fs.Bool("cluster", false, "Quadrics-cluster cost model instead of BlueGene/L")
		verify   = fs.Bool("verify", true, "check against the serial oracle")
		jsonOut  = fs.Bool("json", false, "emit the result as JSON (levels omitted) instead of text")
		faultStr = fs.String("fault", "", "inject a deterministic fault plan: key=value spec or canned[:SEED]")
		ckptOut  = fs.String("checkpoint", "", "halt at -kill-at and write the snapshot to this file")
		killAt   = fs.Int("kill-at", -1, "completed levels (bfs) / epochs (sssp) before the -checkpoint halt")
		restore  = fs.String("restore", "", "resume from a snapshot written by -checkpoint")
		traceOut = fs.String("trace", "", "write a verified Chrome trace-event span export to this file (load in Perfetto)")
		metrOut  = fs.String("metrics", "", "write a metrics snapshot to this file after the run (- for stdout; .json suffix selects JSON)")
		cores    = fs.Int("cores", 1, "modeled compute cores per node: divides pool-loop charges (2 = BG/L virtual-node mode) and sizes the worker pool")
		workers  = fs.Int("workers", 0, "real per-rank worker pool size (0 = -cores); wall-clock only, results bit-identical")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the host process to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	// The library would clamp these, but -json echoes the raw value, so a
	// negative one would name a run the clamped value already names.
	for _, f := range []struct {
		name string
		v    int
	}{{"chunk", *chunk}, {"cores", *cores}, {"workers", *workers}} {
		if f.v < 0 {
			err := fmt.Errorf("-%s must be non-negative, got %d", f.name, f.v)
			fmt.Fprintln(stderr, err)
			fs.Usage()
			return fmt.Errorf("%w: %w", errUsage, err)
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			if err == nil {
				err = writeHeapProfile(*memProf)
			}
		}()
	}

	// -cores 0 runs as one core (the library's clamp); echo it as such,
	// so the two command lines name one run.
	*cores = max(*cores, 1)
	s := setup{k: *k, seed: *seed, chunk: *chunk, cores: *cores, workers: *workers, async: *async}
	if s.workers == 0 {
		s.workers = *cores
	}
	var spanRec *bgl.Trace
	if *traceOut != "" {
		spanRec = bgl.NewTrace()
	}
	var registry *bgl.Metrics
	if *metrOut != "" {
		registry = bgl.NewMetrics()
	}
	s.opts = []bgl.Option{bgl.WithCores(*cores), bgl.WithChunkWords(*chunk), bgl.WithAsync(*async)}
	if *workers > 0 {
		s.opts = append(s.opts, bgl.WithWorkers(*workers))
	}
	if spanRec != nil {
		s.opts = append(s.opts, bgl.WithTrace(spanRec))
	}
	if registry != nil {
		s.opts = append(s.opts, bgl.WithMetrics(registry))
	}
	if *faultStr != "" {
		plan, err := bgl.ParseFaultPlan(*faultStr)
		if err != nil {
			return err
		}
		s.opts = append(s.opts, bgl.WithFault(plan))
	}
	if (*ckptOut == "") != (*killAt < 0) {
		return fmt.Errorf("-checkpoint and -kill-at must be given together")
	}
	var ckptPlan *bgl.CheckpointPlan
	if *ckptOut != "" {
		switch {
		case *traceOut != "":
			return fmt.Errorf("-checkpoint cannot combine with -trace: a restored run's spans cannot tile the clock from zero")
		case *restore != "":
			return fmt.Errorf("-checkpoint and -restore cannot combine in one run")
		}
		ckptPlan = bgl.NewCheckpoint(*killAt)
		s.opts = append(s.opts, bgl.WithCheckpoint(ckptPlan))
	}
	if *restore != "" {
		if *traceOut != "" {
			return fmt.Errorf("-restore cannot combine with -trace: a restored run's spans cannot tile the clock from zero")
		}
		snap, err := bgl.ReadCheckpoint(*restore)
		if err != nil {
			return err
		}
		s.opts = append(s.opts, bgl.WithRestore(snap))
	}

	expAlg, ok := map[string]bgl.ExpandAlg{
		"targeted": bgl.ExpandTargeted, "allgather": bgl.ExpandAllGather, "twophase": bgl.ExpandTwoPhase,
	}[*expand]
	if !ok {
		return fmt.Errorf("unknown expand algorithm %q", *expand)
	}
	foldAlg, ok := map[string]bgl.FoldAlg{
		"twophase": bgl.FoldTwoPhase, "direct": bgl.FoldDirect, "nounion": bgl.FoldTwoPhaseNoUnion,
	}[*fold]
	if !ok {
		return fmt.Errorf("unknown fold algorithm %q", *fold)
	}
	dirPolicy, ok := map[string]bgl.Direction{
		"topdown": bgl.TopDown, "bottomup": bgl.BottomUp, "dirop": bgl.DirectionOptimizing,
	}[*dir]
	if !ok {
		return fmt.Errorf("unknown direction policy %q", *dir)
	}
	s.wire, ok = map[string]bgl.WireMode{
		"sparse": bgl.WireSparse, "dense": bgl.WireDense, "auto": bgl.WireAuto, "hybrid": bgl.WireHybrid,
	}[*wire]
	if !ok {
		return fmt.Errorf("unknown wire encoding %q", *wire)
	}
	s.opts = append(s.opts, bgl.WithWire(s.wire))
	part, ok := map[string]bgl.Partition{
		"2d": bgl.Part2D, "1drow": bgl.Part1DRow, "1dcol": bgl.Part1DCol,
	}[*partStr]
	if !ok {
		return fmt.Errorf("unknown partitioning %q", *partStr)
	}
	if *algo != "bfs" && *algo != "sssp" {
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	runSSSP := *algo == "sssp"
	if *sources != "" {
		switch {
		case runSSSP:
			return fmt.Errorf("-sources runs a multi-source BFS and cannot combine with -algo sssp")
		case *target >= 0 || *bidir:
			return fmt.Errorf("-sources runs full multi-source traversals and cannot combine with -target/-bidir")
		case *source >= 0:
			return fmt.Errorf("-sources and -source conflict; list every source in -sources")
		}
	}
	srcs, err := parseSources(*sources)
	if err != nil {
		return err
	}
	delta, err := parseDelta(*deltaStr)
	if err != nil {
		return err
	}

	switch {
	case *input != "":
		f, ferr := os.Open(*input)
		if ferr != nil {
			return ferr
		}
		s.g, err = bgl.Load(f) // weighted inputs keep their third column
		f.Close()
	case runSSSP:
		wd, ok := map[string]bgl.WeightDist{
			"uniform": bgl.WeightUniform, "exp": bgl.WeightExponential, "unit": bgl.WeightUnit,
		}[*wdist]
		if !ok {
			return fmt.Errorf("unknown weight distribution %q", *wdist)
		}
		s.g, err = bgl.GenerateWeighted(*n, *k, *seed,
			bgl.WithWeightDist(wd), bgl.WithMaxWeight(uint32(*maxw)))
	default:
		s.g, err = bgl.Generate(*n, *k, *seed)
	}
	if err != nil {
		return err
	}
	if *shuffle {
		s.g, _ = s.g.Relabel(*seed)
	}
	mapping := bgl.MapPlanes
	if *rowMaj {
		mapping = bgl.MapRowMajor
	}
	s.cl, err = bgl.NewCluster(bgl.ClusterConfig{
		R: *r, C: *c, Mapping: mapping, ClusterModel: *cluster,
	})
	if err != nil {
		return err
	}
	s.dg, err = s.cl.Distribute(s.g, bgl.WithPartition(part))
	if err != nil {
		return err
	}

	src := bgl.Vertex(*source)
	if *source < 0 {
		src = s.g.LargestComponentVertex()
	}
	var rep report
	switch {
	case *sources != "":
		rep, err = s.multi(srcs)
	case runSSSP:
		rep, err = s.sssp(src, delta)
	default:
		rep, err = s.bfs(src, traversal{
			target: *target, bidir: *bidir, expand: *expand, fold: *fold, cache: *cache, dir: dirPolicy,
			opts: []bgl.Option{bgl.WithExpand(expAlg), bgl.WithFold(foldAlg),
				bgl.WithDirection(dirPolicy), bgl.WithSentCache(*cache)},
		})
	}
	if err != nil {
		return err
	}

	// The shared tail. A -checkpoint run halts on purpose with a partial
	// Result: nothing to verify or print, only the snapshot to write.
	verified := ""
	if *verify && ckptPlan == nil {
		if verified, err = rep.verify(); err != nil {
			return err
		}
	}
	if spanRec != nil {
		// Export re-derives the clock invariant from the span stream;
		// crossCheck holds the derivation against the engine's statistics.
		data, d, err := traceverify.Export(spanRec)
		if err != nil {
			return fmt.Errorf("trace self-check failed: %w", err)
		}
		if err := rep.crossCheck(d); err != nil {
			return fmt.Errorf("trace does not match the run's statistics: %w", err)
		}
		if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "trace: verified %d-rank span export written to %s (%d bytes)\n",
			len(d.Ranks), *traceOut, len(data))
	}
	if registry != nil {
		snap := []byte(registry.Text())
		if strings.HasSuffix(*metrOut, ".json") {
			snap = registry.JSON()
		}
		if *metrOut == "-" {
			_, err = stdout.Write(snap)
		} else {
			err = os.WriteFile(*metrOut, snap, 0o644)
		}
		if err != nil {
			return err
		}
	}
	if ckptPlan != nil {
		snap := ckptPlan.Snapshot()
		if snap == nil {
			return fmt.Errorf("run completed before reaching -kill-at %d; nothing to checkpoint", *killAt)
		}
		if err := bgl.WriteCheckpoint(*ckptOut, snap); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "checkpoint: %s snapshot at %d written to %s (%d ranks)\n",
			snap.Kind, snap.At, *ckptOut, snap.P)
		return nil
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep.doc); err != nil {
			return err
		}
		if verified != "" {
			fmt.Fprintln(stderr, verified)
		}
		return nil
	}
	rep.text(stdout)
	if verified != "" {
		fmt.Fprintf(stdout, "\n%s\n", verified)
	}
	return nil
}

// traversal is what only the single-source BFS family takes; expand and
// fold keep the flag spellings for the report.
type traversal struct {
	target       int
	bidir        bool
	expand, fold string
	cache        bool
	dir          bgl.Direction
	opts         []bgl.Option
}

// bfs runs one traversal, s→t search or bi-directional search from src.
func (s *setup) bfs(src bgl.Vertex, t traversal) (report, error) {
	opts := append(t.opts, s.opts...)
	var res *bgl.Result
	var err error
	switch {
	case t.target >= 0 && t.bidir:
		res, err = s.cl.BiSearch(s.dg, src, bgl.Vertex(t.target), opts...)
	case t.target >= 0:
		res, err = s.cl.Search(s.dg, src, bgl.Vertex(t.target), opts...)
	default:
		res, err = s.cl.BFS(s.dg, src, opts...)
	}
	if err != nil {
		return report{}, err
	}
	out := *res
	out.Levels, out.PerRank = nil, nil
	return report{
		crossCheck: func(d *trace.Derived) error { return traceverify.BFS(d, res) },
		verify: func() (string, error) {
			if t.target >= 0 {
				want := s.g.SerialDistance(src, bgl.Vertex(t.target))
				if !(want == bgl.Unreached && !res.Found) && !(res.Found && res.Distance == want) {
					return "", fmt.Errorf("VERIFY FAILED: distance %d (found=%v), serial %d", res.Distance, res.Found, want)
				}
			} else {
				for v, want := range s.g.SerialBFS(src) {
					if res.Levels[v] != want {
						return "", fmt.Errorf("VERIFY FAILED: level[%d] = %d, serial %d", v, res.Levels[v], want)
					}
				}
			}
			return "verified against serial oracle: OK", nil
		},
		doc: struct {
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
		}{s.g.N(), s.k, s.seed, t.expand, t.fold, t.dir.String(), s.wire.String(), t.cache, s.chunk,
			s.cores, s.workers, hiddenFrac(out.SimOverlap, out.SimComm), &out},
		text: func(w io.Writer) {
			r, c := s.cl.Mesh()
			fmt.Fprintf(w, "graph: n=%d k=%.3g (%d edges) | mesh %dx%d (P=%d) part=%s | expand=%s fold=%s dir=%s wire=%s cache=%v chunk=%d async=%v\n",
				s.g.N(), s.g.AvgDegree(), s.g.NumEdges(), r, c, s.cl.P(), s.dg.Partition(), t.expand, t.fold, t.dir, s.wire, t.cache, s.chunk, s.async)
			if t.target >= 0 {
				fmt.Fprintf(w, "search %d -> %d: found=%v distance=%d\n", src, t.target, res.Found, res.Distance)
			} else {
				fmt.Fprintf(w, "traversal from %d: reached %d vertices, max level %d\n",
					src, res.Reached(), res.MaxLevel())
			}
			fmt.Fprintf(w, "simulated: exec %.6fs, comm %.6fs (%.1f%%), overlap %.6fs hidden (%.1f%% of comm) | wall %v\n",
				res.SimTime, res.SimComm, safePct(res.SimComm, res.SimTime),
				res.SimOverlap, safePct(res.SimOverlap, res.SimComm), res.Wall)
			fmt.Fprintf(w, "volumes: expand %d words, fold %d words, dups eliminated %d (redundancy %.1f%%), hash probes %d\n",
				res.TotalExpandWords, res.TotalFoldWords, res.TotalDups, res.RedundancyRatio(), res.HashProbes)
			fmt.Fprintf(w, "network: %d messages, %.2f avg hops, load imbalance %.3f\n",
				res.MsgsRecv, res.AvgHopsPerMessage(), res.LoadImbalance())
			printFaults(w, res.Faults)
			showContainers := res.Containers.Payloads() > 0
			if showContainers {
				c := res.Containers
				fmt.Fprintf(w, "containers: payloads raw=%d dense=%d hybrid=%d | chunks empty=%d list=%d bitmap=%d runs=%d packed=%d\n",
					c.RawPayloads, c.DensePayloads, c.HybridPayloads,
					c.EmptyChunks, c.ListChunks, c.BitmapChunks, c.RunChunks, c.PackedChunks)
			}
			header := "\nlevel  dir       frontier  expand-words  fold-words  dups  marked  edges-scanned  overlap-ms  hidden%"
			if showContainers {
				header += "  containers raw/dense/hyb (chunks e/l/b/r/p)"
			}
			fmt.Fprintln(w, header)
			for _, ls := range res.PerLevel {
				fmt.Fprintf(w, "%5d  %-8s  %8d  %12d  %10d  %4d  %6d  %13d  %10.4f  %7.1f",
					ls.Level, ls.Direction, ls.Frontier, ls.ExpandWords, ls.FoldWords, ls.Dups, ls.Marked, ls.EdgesScanned,
					1e3*ls.OverlapS, 100*ls.HiddenFrac())
				if showContainers {
					c := ls.Containers
					fmt.Fprintf(w, "  %d/%d/%d (%d/%d/%d/%d/%d)",
						c.RawPayloads, c.DensePayloads, c.HybridPayloads,
						c.EmptyChunks, c.ListChunks, c.BitmapChunks, c.RunChunks, c.PackedChunks)
				}
				fmt.Fprintln(w)
			}
		},
	}, nil
}

// sssp runs distributed Δ-stepping from src.
func (s *setup) sssp(src bgl.Vertex, delta uint32) (report, error) {
	res, err := s.cl.SSSP(s.dg, src, append([]bgl.Option{bgl.WithDelta(delta)}, s.opts...)...)
	if err != nil {
		return report{}, err
	}
	out := *res
	out.Dist, out.PerRank = nil, nil
	return report{
		crossCheck: func(d *trace.Derived) error { return traceverify.SSSP(d, res) },
		verify: func() (string, error) {
			for v, want := range s.g.SerialDijkstra(src) {
				if res.Dist[v] != want {
					return "", fmt.Errorf("VERIFY FAILED: dist[%d] = %d, serial dijkstra %d", v, res.Dist[v], want)
				}
			}
			return "verified against serial Dijkstra oracle: OK", nil
		},
		doc: struct {
			N          int
			K          float64
			Seed       int64
			Wire       string
			Cores      int
			Workers    int
			HiddenFrac float64
			*bgl.SSSPResult
		}{s.g.N(), s.k, s.seed, s.wire.String(), s.cores, s.workers,
			hiddenFrac(out.SimOverlap, out.SimComm), &out},
		text: func(w io.Writer) {
			r, c := s.cl.Mesh()
			minW, maxW := s.g.EdgeWeightRange()
			fmt.Fprintf(w, "graph: n=%d k=%.3g (%d edges, weights [%d,%d]) | mesh %dx%d (P=%d) part=%s | sssp delta=%d wire=%s chunk=%d async=%v\n",
				s.g.N(), s.g.AvgDegree(), s.g.NumEdges(), minW, maxW, r, c, s.cl.P(), s.dg.Partition(), res.Delta, s.wire, s.chunk, s.async)
			fmt.Fprintf(w, "traversal from %d: reached %d vertices, max distance %d\n",
				src, res.Reached(), res.MaxDistance())
			fmt.Fprintf(w, "simulated: exec %.6fs, comm %.6fs (%.1f%%), overlap %.6fs hidden (%.1f%% of comm) | wall %v\n",
				res.SimTime, res.SimComm, safePct(res.SimComm, res.SimTime),
				res.SimOverlap, safePct(res.SimOverlap, res.SimComm), res.Wall)
			fmt.Fprintf(w, "volumes: expand %d words, fold %d words | buckets %d, epochs %d, relaxations %d, re-settles %d\n",
				res.TotalExpandWords, res.TotalFoldWords, res.BucketsDrained, res.Epochs,
				res.TotalRelaxations, res.TotalReSettles)
			printFaults(w, res.Faults)
			fmt.Fprintln(w, "\nepoch  bucket  phase  active  expand-words  fold-words  relax  re-settle  edges-scanned")
			for _, es := range res.PerEpoch {
				fmt.Fprintf(w, "%5d  %6d  %-5s  %6d  %12d  %10d  %5d  %9d  %13d\n",
					es.Epoch, es.Bucket, es.Phase, es.Active, es.ExpandWords, es.FoldWords,
					es.Relaxations, es.ReSettles, es.EdgesScanned)
			}
		},
	}, nil
}

// multi runs one batched multi-source BFS, one bit-lane per source.
func (s *setup) multi(srcs []bgl.Vertex) (report, error) {
	res, err := s.cl.MultiBFS(s.dg, srcs, s.opts...)
	if err != nil {
		return report{}, err
	}
	out := *res
	out.Levels, out.LaneLevels, out.PerRank = nil, nil, nil
	return report{
		crossCheck: func(d *trace.Derived) error { return traceverify.BFS(d, &res.Result) },
		verify: func() (string, error) {
			for lane, src := range res.Sources {
				for v, want := range s.g.SerialBFS(src) {
					if res.LaneLevels[lane][v] != want {
						return "", fmt.Errorf("VERIFY FAILED: lane %d level[%d] = %d, serial %d",
							lane, v, res.LaneLevels[lane][v], want)
					}
				}
			}
			return fmt.Sprintf("verified %d lanes against the serial oracle: OK", res.B), nil
		},
		doc: struct {
			N          int
			Wire       string
			Part       string
			Cores      int
			Workers    int
			HiddenFrac float64
			*bgl.MultiResult
		}{s.g.N(), s.wire.String(), s.dg.Partition().String(), s.cores, s.workers,
			hiddenFrac(out.SimOverlap, out.SimComm), &out},
		text: func(w io.Writer) {
			r, c := s.cl.Mesh()
			fmt.Fprintf(w, "graph: n=%d k=%.3g (%d edges) | mesh %dx%d (P=%d) part=%s | multi-bfs b=%d wire=%s chunk=%d\n",
				s.g.N(), s.g.AvgDegree(), s.g.NumEdges(), r, c, s.cl.P(), s.dg.Partition(), res.B, s.wire, s.chunk)
			fmt.Fprintf(w, "simulated: exec %.6fs, comm %.6fs (%.1f%%) | wall %v\n",
				res.SimTime, res.SimComm, safePct(res.SimComm, res.SimTime), res.Wall)
			fmt.Fprintf(w, "volumes: expand %d words, fold %d words over %d sweeps (lane merges %d)\n",
				res.TotalExpandWords, res.TotalFoldWords, len(res.PerLevel), res.TotalDups)
			fmt.Fprintln(w, "\nsweep  frontier  expand-words  fold-words  lane-labels  edges-scanned")
			for _, ls := range res.PerLevel {
				fmt.Fprintf(w, "%5d  %8d  %12d  %10d  %11d  %13d\n",
					ls.Level, ls.Frontier, ls.ExpandWords, ls.FoldWords, ls.Marked, ls.EdgesScanned)
			}
			fmt.Fprintln(w, "\nlane  source  reached  max-level")
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
				fmt.Fprintf(w, "%4d  %6d  %7d  %9d\n", lane, src, reached, maxL)
			}
		},
	}, nil
}

// parseSources reads the -sources list ("" is no list).
func parseSources(list string) ([]bgl.Vertex, error) {
	var srcs []bgl.Vertex
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad -sources entry %q: %v", f, err)
		}
		srcs = append(srcs, bgl.Vertex(v))
	}
	return srcs, nil
}

// parseDelta reads -delta: auto (0), inf, or a bucket width.
func parseDelta(s string) (uint32, error) {
	switch s {
	case "auto":
		return 0, nil
	case "inf":
		return bgl.DeltaInf, nil
	}
	d, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad -delta %q: %v", s, err)
	}
	return uint32(d), nil
}

// writeHeapProfile writes a pprof heap profile of the host process.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printFaults reports the transport's fault/recovery counters when a
// -fault plan injected anything.
func printFaults(w io.Writer, fs bgl.FaultStats) {
	if fs.Injected() == 0 && fs.Retries == 0 && fs.DupsDiscarded == 0 {
		return
	}
	fmt.Fprintf(w, "faults: injected corrupt=%d drop=%d dup=%d delay=%d outage-holds=%d | recovered retries=%d checksum-fails=%d dups-discarded=%d (%.6fs sim retry time)\n",
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
