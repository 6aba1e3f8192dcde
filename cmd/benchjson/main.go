// Command benchjson runs the repository's headline benchmark
// configurations — the n=100k, k=10 Poisson traversal on a 4x4 mesh
// under every direction policy and wire encoding — and writes the five
// machine-readable JSON baselines into -dir (the repository root by
// default) so later PRs can diff simulated execution time, exchange
// words, and edges scanned against a recorded trajectory. See README.md
// ("Perf trajectory") for the formats.
//
//   - BENCH_PR2.json: every direction policy x wire encoding, and the
//     Δ-stepping bucket-width sweep;
//   - BENCH_PR4.json: one 64-lane MultiBFS sweep sequence versus 64
//     independent BFS runs (the batch must move strictly fewer words);
//   - BENCH_PR5.json: the synchronous versus the overlapped schedule;
//   - BENCH_PR8.json: the modeled core count and worker pool at 1/2/4;
//   - BENCH_PR9.json: the 64-query set swept in coalesced chunks at
//     several concurrency levels versus one at a time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/bfs"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/partition"
	"repro/internal/sssp"
)

// The headline workload every baseline runs on; the documents record
// it in their header fields.
const (
	benchN    = 100000
	benchK    = 10.0
	benchSeed = 9
	benchR    = 4
	benchC    = 4
)

var benchMesh = fmt.Sprintf("%dx%d", benchR, benchC)

// Level is one BFS level of a run.
type Level struct {
	Level        int     `json:"level"`
	Direction    string  `json:"direction"`
	Frontier     int64   `json:"frontier"`
	OccupancyPct float64 `json:"occupancy_pct"`
	ExpandWords  int64   `json:"expand_words"`
	FoldWords    int64   `json:"fold_words"`
	EdgesScanned int64   `json:"edges_scanned"`
}

// Summary holds the per-run fields every baseline document shares —
// one reused type instead of a copy per PR's block.
type Summary struct {
	Name        string  `json:"name"`
	Wire        string  `json:"wire"`
	SimExecS    float64 `json:"simexec_s"`
	SimCommS    float64 `json:"simcomm_s"`
	SimOverlapS float64 `json:"sim_overlap_s"`
	// HiddenFrac is the fraction of the run's communication seconds
	// that progressed under concurrent activity (SimOverlapS/SimCommS).
	HiddenFrac float64 `json:"hidden_frac"`
	TotalWords int64   `json:"total_words"`
}

// summarize fills a Summary from a run's simulated totals.
func summarize(name, wire string, simExec, simComm, simOverlap float64, words int64) Summary {
	s := Summary{Name: name, Wire: wire, SimExecS: simExec, SimCommS: simComm,
		SimOverlapS: simOverlap, TotalWords: words}
	if simComm > 0 {
		s.HiddenFrac = simOverlap / simComm
	}
	return s
}

// Run is one benchmark configuration's result.
type Run struct {
	Summary
	Direction    string  `json:"direction"`
	ExpandWords  int64   `json:"expand_words"`
	FoldWords    int64   `json:"fold_words"`
	EdgesScanned int64   `json:"edges_scanned"`
	Levels       []Level `json:"levels"`
}

// SSSPRun is one Δ-stepping configuration's result on the weighted
// variant of the headline workload.
type SSSPRun struct {
	Summary
	Delta       uint32 `json:"delta"`
	Buckets     int    `json:"buckets"`
	Epochs      int    `json:"epochs"`
	Relaxations int64  `json:"relaxations"`
	ReSettles   int64  `json:"resettles"`
}

// Baseline is the file-level document.
type Baseline struct {
	N    int     `json:"n"`
	K    float64 `json:"k"`
	Seed int64   `json:"seed"`
	Mesh string  `json:"mesh"`
	Runs []Run   `json:"runs"`
	// SSSP sweeps the Δ-stepping bucket width on the same workload
	// with uniform [1,256] edge weights; DeltaSweep summarizes the
	// U-shape acceptance metric (some interior Δ beats both degenerate
	// extremes in simulated execution time).
	SSSP       []SSSPRun `json:"sssp"`
	DeltaSweep struct {
		DijkstraLikeExecS     float64 `json:"dijkstra_like_simexec_s"`
		BellmanFordExecS      float64 `json:"bellman_ford_simexec_s"`
		BestInteriorDelta     uint32  `json:"best_interior_delta"`
		BestInteriorExecS     float64 `json:"best_interior_simexec_s"`
		InteriorBeatsExtremes bool    `json:"interior_beats_extremes"`
	} `json:"delta_sweep"`
	// MidOccupancy summarizes the acceptance metric: exchange words on
	// the mid-occupancy levels — global frontier occupancy in
	// [0.1%, 10%), the middle regime between the list-optimal sparse
	// extreme and the bitmap-optimal dense levels — under wire=auto vs
	// wire=hybrid, top-down.
	MidOccupancy struct {
		AutoWords       int64   `json:"auto_words"`
		HybridWords     int64   `json:"hybrid_words"`
		AutoOverHybrid  float64 `json:"auto_over_hybrid"`
		OccupancyLowPct float64 `json:"occupancy_low_pct"`
		OccupancyHiPct  float64 `json:"occupancy_high_pct"`
	} `json:"mid_occupancy"`
}

const (
	midOccLowPct = 0.1
	midOccHiPct  = 10
)

// MultiSweep is one multi-source sweep's statistics.
type MultiSweep struct {
	Sweep        int   `json:"sweep"`
	Frontier     int64 `json:"frontier"`
	ExpandWords  int64 `json:"expand_words"`
	FoldWords    int64 `json:"fold_words"`
	LaneLabels   int64 `json:"lane_labels"`
	EdgesScanned int64 `json:"edges_scanned"`
}

// MultiBFSBench compares one b-lane batched run against b independent
// single-source runs on the same stores and wire mode.
type MultiBFSBench struct {
	B                 int          `json:"b"`
	Wire              string       `json:"wire"`
	Sweeps            int          `json:"sweeps"`
	MultiWords        int64        `json:"multi_words"`
	MultiSimExecS     float64      `json:"multi_simexec_s"`
	IndependentWords  int64        `json:"independent_words"`
	IndependentExecS  float64      `json:"independent_simexec_s"`
	IndependentRuns   int          `json:"independent_runs"`
	WordsRatio        float64      `json:"independent_over_multi_words"`
	StrictlyFewer     bool         `json:"multi_strictly_fewer_words"`
	PerSweep          []MultiSweep `json:"per_sweep"`
	LaneLevelsChecked bool         `json:"lane_levels_verified"`
}

// Baseline4 is the PR 4 document: the multi-source acceptance metric.
type Baseline4 struct {
	N        int           `json:"n"`
	K        float64       `json:"k"`
	Seed     int64         `json:"seed"`
	Mesh     string        `json:"mesh"`
	MultiBFS MultiBFSBench `json:"multi_bfs"`
}

// OverlapPoint is one level's (BFS) or epoch's (Δ-stepping) timing
// under both schedules.
type OverlapPoint struct {
	Index      int     `json:"index"`
	SyncExecS  float64 `json:"sync_exec_s"`
	AsyncExecS float64 `json:"async_exec_s"`
	AsyncCommS float64 `json:"async_comm_s"`
	HiddenFrac float64 `json:"hidden_frac"`
}

// OverlapRun compares one configuration under the phase-synchronous and
// overlapped schedules; the embedded Summary carries the async run's
// totals (results and words are identical under both by construction).
type OverlapRun struct {
	Summary
	Algo      string  `json:"algo"`
	SyncExecS float64 `json:"sync_exec_s"`
	OverlapS  float64 `json:"overlap_s"`
	Speedup   float64 `json:"speedup"`
	// The embedded Summary carries HiddenFrac for the async run.
	PerPhase []OverlapPoint `json:"per_phase"`
}

// Baseline5 is the PR 5 document: synchronous vs asynchronous schedule
// on the headline workload, with the flagship ≥1.3x acceptance check.
type Baseline5 struct {
	N        int          `json:"n"`
	K        float64      `json:"k"`
	Seed     int64        `json:"seed"`
	Mesh     string       `json:"mesh"`
	Runs     []OverlapRun `json:"runs"`
	Flagship struct {
		Name     string  `json:"name"`
		Speedup  float64 `json:"speedup"`
		Meets13x bool    `json:"meets_1_3x"`
	} `json:"flagship"`
}

// CorePoint is one modeled core count's run of a pool configuration.
// SimExecS and TotalWords are benchdiff-gated (both are deterministic
// at every core count — the pool contract). WallMs and the speedup
// ratios deliberately use non-gated leaf names: host wall-clock depends
// on the machine's real CPU count, so it is recorded as context only.
type CorePoint struct {
	Name        string  `json:"name"`
	Cores       int     `json:"cores"`
	Workers     int     `json:"workers"`
	SimExecS    float64 `json:"simexec_s"`
	SimCommS    float64 `json:"simcomm_s"`
	TotalWords  int64   `json:"total_words"`
	WallMs      float64 `json:"wall_ms"`
	SimSpeedup  float64 `json:"sim_speedup_vs_1core"`
	WallSpeedup float64 `json:"wall_speedup_vs_1core"`
}

// PoolRun sweeps one configuration over the modeled core counts with
// the real worker pool sized to match (BG/L virtual-node mapping).
type PoolRun struct {
	Name   string      `json:"name"`
	Algo   string      `json:"algo"`
	Wire   string      `json:"wire"`
	Points []CorePoint `json:"points"`
}

// Baseline8 is the PR 8 document: the per-rank worker-pool and
// multi-core cost-model sweep on the flagship configurations.
type Baseline8 struct {
	N        int       `json:"n"`
	K        float64   `json:"k"`
	Seed     int64     `json:"seed"`
	Mesh     string    `json:"mesh"`
	HostCPUs int       `json:"host_cpus"`
	Runs     []PoolRun `json:"pool_runs"`
}

func main() {
	dir := flag.String("dir", ".", "directory the five BENCH_PR*.json baselines are written into")
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	path := func(name string) string { return filepath.Join(*dir, name) }

	w, err := harness.BuildWorkload(benchN, benchK, benchSeed, benchR, benchC)
	if err != nil {
		fail(err)
	}
	src := graph.LargestComponentVertex(w.Graph)

	doc := Baseline{N: benchN, K: benchK, Seed: benchSeed, Mesh: benchMesh}
	type cfg struct {
		name string
		dir  bfs.Direction
		wire frontier.WireMode
	}
	cfgs := []cfg{
		{"topdown-sparse", bfs.TopDown, frontier.WireSparse},
		{"topdown-dense", bfs.TopDown, frontier.WireDense},
		{"topdown-auto", bfs.TopDown, frontier.WireAuto},
		{"topdown-hybrid", bfs.TopDown, frontier.WireHybrid},
		{"dirop-sparse", bfs.DirectionOptimizing, frontier.WireSparse},
		{"dirop-auto", bfs.DirectionOptimizing, frontier.WireAuto},
		{"dirop-hybrid", bfs.DirectionOptimizing, frontier.WireHybrid},
	}
	byName := map[string]*bfs.Result{}
	for _, cf := range cfgs {
		opts := bfs.DefaultOptions(src)
		opts.Direction = cf.dir
		opts.Wire = cf.wire
		res, err := bfs.Run2D(w.World, w.Stores, opts)
		if err != nil {
			fail(err)
		}
		byName[cf.name] = res
		run := Run{
			Summary: summarize(cf.name, cf.wire.String(),
				res.SimTime, res.SimComm, res.SimOverlap,
				res.TotalExpandWords+res.TotalFoldWords),
			Direction:    cf.dir.String(),
			ExpandWords:  res.TotalExpandWords,
			FoldWords:    res.TotalFoldWords,
			EdgesScanned: res.TotalEdgesScanned,
		}
		for _, ls := range res.PerLevel {
			run.Levels = append(run.Levels, Level{
				Level:        int(ls.Level),
				Direction:    ls.Direction.String(),
				Frontier:     ls.Frontier,
				OccupancyPct: 100 * float64(ls.Frontier) / benchN,
				ExpandWords:  ls.ExpandWords,
				FoldWords:    ls.FoldWords,
				EdgesScanned: ls.EdgesScanned,
			})
		}
		doc.Runs = append(doc.Runs, run)
	}

	// Acceptance metric: hybrid vs auto on the mid-occupancy levels.
	auto, hybrid := byName["topdown-auto"], byName["topdown-hybrid"]
	m := &doc.MidOccupancy
	m.OccupancyLowPct, m.OccupancyHiPct = midOccLowPct, midOccHiPct
	for l, ls := range auto.PerLevel {
		occ := 100 * float64(ls.Frontier) / benchN
		if occ < midOccLowPct || occ >= midOccHiPct || l >= len(hybrid.PerLevel) {
			continue
		}
		m.AutoWords += ls.ExpandWords + ls.FoldWords
		m.HybridWords += hybrid.PerLevel[l].ExpandWords + hybrid.PerLevel[l].FoldWords
	}
	if m.HybridWords > 0 {
		m.AutoOverHybrid = float64(m.AutoWords) / float64(m.HybridWords)
	}

	// Δ-stepping sweep on the weighted variant of the same workload.
	wg, err := graph.GenerateWeighted(graph.Params{N: benchN, K: benchK, Seed: benchSeed},
		graph.WeightSpec{Dist: graph.WeightUniform, MaxWeight: 256, Seed: benchSeed + 1})
	if err != nil {
		fail(err)
	}
	layout, err := partition.NewLayout2D(benchN, benchR, benchC)
	if err != nil {
		fail(err)
	}
	wstores, err := partition.Build2DWeighted(layout, wg.VisitWeightedEdges)
	if err != nil {
		fail(err)
	}
	wsrc := graph.LargestComponentVertex(wg)
	minW, maxW := wg.MinEdgeWeight(), wg.MaxEdgeWeight()
	type spt struct {
		name  string
		delta uint32
	}
	sweep := []spt{
		{"dijkstra-like", minW},
		{"interior-small", maxW / 32},
		{"interior-mid", maxW / 8},
		{"interior-large", maxW / 2},
		{"auto", 0},
		{"bellman-ford", sssp.DeltaInf},
	}
	ds := &doc.DeltaSweep
	for _, pt := range sweep {
		opts := sssp.DefaultOptions(wsrc)
		opts.Delta = pt.delta
		opts.Wire = frontier.WireHybrid
		res, err := sssp.Run2D(w.World, wstores, opts)
		if err != nil {
			fail(err)
		}
		doc.SSSP = append(doc.SSSP, SSSPRun{
			Summary: summarize(pt.name, opts.Wire.String(),
				res.SimTime, res.SimComm, res.SimOverlap, res.TotalWords()),
			Delta:       res.Delta,
			Buckets:     res.BucketsDrained,
			Epochs:      res.Epochs,
			Relaxations: res.TotalRelaxations,
			ReSettles:   res.TotalReSettles,
		})
		switch pt.name {
		case "dijkstra-like":
			ds.DijkstraLikeExecS = res.SimTime
		case "bellman-ford":
			ds.BellmanFordExecS = res.SimTime
		default:
			if ds.BestInteriorExecS == 0 || res.SimTime < ds.BestInteriorExecS {
				ds.BestInteriorExecS = res.SimTime
				ds.BestInteriorDelta = res.Delta
			}
		}
	}
	ds.InteriorBeatsExtremes = ds.BestInteriorExecS < ds.DijkstraLikeExecS &&
		ds.BestInteriorExecS < ds.BellmanFordExecS

	if err := writeDoc(path("BENCH_PR2.json"), doc); err != nil {
		fail(err)
	}
	fmt.Printf("mid-occupancy auto/hybrid = %.2fx (%d vs %d words)\n",
		m.AutoOverHybrid, m.AutoWords, m.HybridWords)
	fmt.Printf("delta sweep: interior Δ=%d %.4fs vs dijkstra-like %.4fs, bellman-ford %.4fs (interior beats extremes: %v)\n",
		ds.BestInteriorDelta, ds.BestInteriorExecS, ds.DijkstraLikeExecS, ds.BellmanFordExecS, ds.InteriorBeatsExtremes)

	// The 64 independent single-source runs are shared by the PR 4
	// multi-source baseline and the PR 9 service baseline: both compare
	// the same one-query-at-a-time trajectory against coalesced sweeps.
	msrcs := multiSources(graph.BFS(w.Graph, src), bfs.MaxLanes)
	inds, err := runIndependents(w, msrcs)
	if err != nil {
		fail(err)
	}
	if err := writeMultiBaseline(path("BENCH_PR4.json"), w, msrcs, inds); err != nil {
		fail(err)
	}
	if err := writeServiceBaseline(path("BENCH_PR9.json"), w, msrcs, inds); err != nil {
		fail(err)
	}
	layout1, err := partition.NewLayout1D(benchN, benchR*benchC)
	if err != nil {
		fail(err)
	}
	wstores1, err := partition.Build1DWeighted(layout1, wg.VisitWeightedEdges)
	if err != nil {
		fail(err)
	}
	if err := writeOverlapBaseline(path("BENCH_PR5.json"), w, wstores, wstores1, src, wsrc); err != nil {
		fail(err)
	}
	if err := writePoolBaseline(path("BENCH_PR8.json"), w, wstores, src, wsrc); err != nil {
		fail(err)
	}
}

// writeDoc writes one baseline document as indented JSON.
func writeDoc(path string, doc any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// bfsOverlapPoints converts per-level stats into sync/async points.
func bfsOverlapPoints(sync, async *bfs.Result) []OverlapPoint {
	pts := make([]OverlapPoint, 0, len(async.PerLevel))
	for l := range async.PerLevel {
		ls, la := sync.PerLevel[l], async.PerLevel[l]
		pts = append(pts, OverlapPoint{
			Index: l, SyncExecS: ls.ExecS, AsyncExecS: la.ExecS,
			AsyncCommS: la.CommS, HiddenFrac: la.HiddenFrac(),
		})
	}
	return pts
}

// ssspOverlapPoints converts per-epoch stats into sync/async points.
func ssspOverlapPoints(sync, async *sssp.Result) []OverlapPoint {
	pts := make([]OverlapPoint, 0, len(async.PerEpoch))
	for e := range async.PerEpoch {
		es, ea := sync.PerEpoch[e], async.PerEpoch[e]
		pts = append(pts, OverlapPoint{
			Index: e, SyncExecS: es.ExecS, AsyncExecS: ea.ExecS,
			AsyncCommS: ea.CommS, HiddenFrac: ea.HiddenFrac(),
		})
	}
	return pts
}

// writeOverlapBaseline runs the PR 5 acceptance comparison: each
// configuration under the synchronous and overlapped schedules — same
// workload, same words, different clocks — with the flagship Δ-stepping
// run checked against the ≥1.3x bar.
func writeOverlapBaseline(path string, w *harness.Workload, wstores []*partition.Store2D, wstores1 []*partition.Store1D,
	src, wsrc graph.Vertex) error {
	doc := Baseline5{N: benchN, K: benchK, Seed: benchSeed, Mesh: benchMesh}
	const flagship = "sssp-1dcol-delta128"

	addRun := func(run OverlapRun, syncExec, asyncExec, overlap, comm float64) {
		run.SyncExecS = syncExec
		run.OverlapS = overlap
		if asyncExec > 0 {
			run.Speedup = syncExec / asyncExec
		}
		doc.Runs = append(doc.Runs, run)
		if run.Name == flagship {
			doc.Flagship.Name = run.Name
			doc.Flagship.Speedup = run.Speedup
			doc.Flagship.Meets13x = run.Speedup >= 1.3
		}
	}

	bfsCfgs := []struct {
		name string
		dir  bfs.Direction
		wire frontier.WireMode
	}{
		{"bfs-topdown-sparse", bfs.TopDown, frontier.WireSparse},
		{"bfs-dirop-auto", bfs.DirectionOptimizing, frontier.WireAuto},
	}
	for _, cf := range bfsCfgs {
		runOne := func(async bool) (*bfs.Result, error) {
			opts := bfs.DefaultOptions(src)
			opts.Direction = cf.dir
			opts.Wire = cf.wire
			opts.Async = async
			return bfs.Run2D(w.World, w.Stores, opts)
		}
		syncRes, err := runOne(false)
		if err != nil {
			return err
		}
		asyncRes, err := runOne(true)
		if err != nil {
			return err
		}
		addRun(OverlapRun{
			Summary: summarize(cf.name, cf.wire.String(), asyncRes.SimTime, asyncRes.SimComm,
				asyncRes.SimOverlap, asyncRes.TotalExpandWords+asyncRes.TotalFoldWords),
			Algo:     "bfs",
			PerPhase: bfsOverlapPoints(syncRes, asyncRes),
		}, syncRes.SimTime, asyncRes.SimTime, asyncRes.SimOverlap, asyncRes.SimComm)
	}

	ssspCfgs := []struct {
		name  string
		delta uint32
		part  string
	}{
		{"sssp-2d-auto", 0, "2d"},
		{"sssp-2d-delta128", 128, "2d"},
		{flagship, 128, "1dcol"},
	}
	for _, cf := range ssspCfgs {
		baseOpts := sssp.DefaultOptions(wsrc)
		baseOpts.Delta = cf.delta
		runOne := func(async bool) (*sssp.Result, error) {
			opts := baseOpts
			opts.Async = async
			if cf.part == "1dcol" {
				return sssp.Run1D(w.World, wstores1, opts)
			}
			return sssp.Run2D(w.World, wstores, opts)
		}
		syncRes, err := runOne(false)
		if err != nil {
			return err
		}
		asyncRes, err := runOne(true)
		if err != nil {
			return err
		}
		addRun(OverlapRun{
			Summary: summarize(cf.name, baseOpts.Wire.String(), asyncRes.SimTime, asyncRes.SimComm,
				asyncRes.SimOverlap, asyncRes.TotalWords()),
			Algo:     "sssp",
			PerPhase: ssspOverlapPoints(syncRes, asyncRes),
		}, syncRes.SimTime, asyncRes.SimTime, asyncRes.SimOverlap, asyncRes.SimComm)
	}

	if err := writeDoc(path, doc); err != nil {
		return err
	}
	for _, run := range doc.Runs {
		fmt.Printf("overlap %-22s sync %.4fs -> async %.4fs (%.2fx, %.0f%% of comm hidden)\n",
			run.Name, run.SyncExecS, run.SimExecS, run.Speedup, 100*run.HiddenFrac)
	}
	fmt.Printf("flagship %s speedup %.2fx (meets 1.3x bar: %v)\n",
		doc.Flagship.Name, doc.Flagship.Speedup, doc.Flagship.Meets13x)
	return nil
}

// multiSources picks b spread-out vertices reachable from src so every
// lane traverses the giant component.
func multiSources(levels []int32, b int) []graph.Vertex {
	var reachable []graph.Vertex
	for v, l := range levels {
		if l != graph.Unreached {
			reachable = append(reachable, graph.Vertex(v))
		}
	}
	srcs := make([]graph.Vertex, 0, b)
	step := len(reachable) / b
	if step == 0 {
		step = 1
	}
	for i := 0; len(srcs) < b; i += step {
		srcs = append(srcs, reachable[i%len(reachable)])
	}
	return srcs
}

// indepRun is one independent single-source run of the shared query
// set: the one-at-a-time cost the batched baselines compare against,
// plus the level oracle every batched lane must reproduce.
type indepRun struct {
	words   int64
	simExec float64
	levels  []int32
}

// runIndependents runs each source as its own single-source BFS (wire
// auto — the same mode the batched comparisons use).
func runIndependents(w *harness.Workload, srcs []graph.Vertex) ([]indepRun, error) {
	inds := make([]indepRun, 0, len(srcs))
	for _, s := range srcs {
		opts := bfs.DefaultOptions(s)
		opts.Wire = frontier.WireAuto
		res, err := bfs.Run2D(w.World, w.Stores, opts)
		if err != nil {
			return nil, err
		}
		inds = append(inds, indepRun{
			words:   res.TotalExpandWords + res.TotalFoldWords,
			simExec: res.SimTime,
			levels:  res.Levels,
		})
	}
	return inds, nil
}

// writeMultiBaseline runs the PR 4 acceptance comparison: one 64-lane
// MultiBFS versus 64 independent BFS runs on the same stores, wire
// mode auto for both.
func writeMultiBaseline(path string, w *harness.Workload, srcs []graph.Vertex, inds []indepRun) error {
	doc := Baseline4{N: benchN, K: benchK, Seed: benchSeed, Mesh: benchMesh}

	opts := bfs.DefaultOptions(0)
	opts.Wire = frontier.WireAuto
	mres, err := bfs.MultiRun2D(w.World, w.Stores, srcs, opts)
	if err != nil {
		return err
	}
	mb := &doc.MultiBFS
	mb.B = mres.B
	mb.Wire = opts.Wire.String()
	mb.Sweeps = len(mres.PerLevel)
	mb.MultiWords = mres.TotalExpandWords + mres.TotalFoldWords
	mb.MultiSimExecS = mres.SimTime
	for _, ls := range mres.PerLevel {
		mb.PerSweep = append(mb.PerSweep, MultiSweep{
			Sweep:        int(ls.Level),
			Frontier:     ls.Frontier,
			ExpandWords:  ls.ExpandWords,
			FoldWords:    ls.FoldWords,
			LaneLabels:   ls.Marked,
			EdgesScanned: ls.EdgesScanned,
		})
	}

	mb.LaneLevelsChecked = true
	for lane := range srcs {
		ind := inds[lane]
		mb.IndependentRuns++
		mb.IndependentWords += ind.words
		mb.IndependentExecS += ind.simExec
		for v, l := range ind.levels {
			if mres.LaneLevels[lane][v] != l {
				mb.LaneLevelsChecked = false
				return fmt.Errorf("benchjson: lane %d level[%d] = %d, independent run %d",
					lane, v, mres.LaneLevels[lane][v], l)
			}
		}
	}
	if mb.MultiWords > 0 {
		mb.WordsRatio = float64(mb.IndependentWords) / float64(mb.MultiWords)
	}
	mb.StrictlyFewer = mb.MultiWords < mb.IndependentWords

	if err := writeDoc(path, doc); err != nil {
		return err
	}
	fmt.Printf("multi-bfs b=%d moved %d words vs %d over %d runs (%.2fx, strictly fewer: %v); simexec %.4fs vs %.4fs (%.1fx)\n",
		mb.B, mb.MultiWords, mb.IndependentWords, mb.IndependentRuns, mb.WordsRatio, mb.StrictlyFewer,
		mb.MultiSimExecS, mb.IndependentExecS, mb.IndependentExecS/mb.MultiSimExecS)
	return nil
}

// poolCores are the modeled core counts the PR 8 baseline sweeps —
// 1 (the committed single-core trajectory, bit-identical to the other
// baselines), 2 (BG/L virtual-node mode), and 4 (headroom).
var poolCores = [...]int{1, 2, 4}

// speedups fills each point's ratios against the sweep's 1-core point.
func speedups(pts []CorePoint) {
	base := pts[0]
	for i := range pts {
		if pts[i].SimExecS > 0 {
			pts[i].SimSpeedup = base.SimExecS / pts[i].SimExecS
		}
		if pts[i].WallMs > 0 {
			pts[i].WallSpeedup = base.WallMs / pts[i].WallMs
		}
	}
}

// writePoolBaseline runs the PR 8 sweep: the flagship BFS and
// Δ-stepping configurations with the modeled core count and the real
// worker pool stepped together through poolCores. The simulated times
// and word counts are deterministic at every point and gate the diff;
// wall times are host context.
func writePoolBaseline(path string, w *harness.Workload, wstores []*partition.Store2D, src, wsrc graph.Vertex) error {
	doc := Baseline8{N: benchN, K: benchK, Seed: benchSeed, Mesh: benchMesh, HostCPUs: runtime.NumCPU()}

	bfsRun := PoolRun{Name: "bfs-dirop-hybrid", Algo: "bfs", Wire: frontier.WireHybrid.String()}
	for _, nc := range poolCores {
		opts := bfs.DefaultOptions(src)
		opts.Direction = bfs.DirectionOptimizing
		opts.Wire = frontier.WireHybrid
		opts.Cores = nc
		opts.Workers = nc
		res, err := bfs.Run2D(w.World, w.Stores, opts)
		if err != nil {
			return err
		}
		bfsRun.Points = append(bfsRun.Points, CorePoint{
			Name: fmt.Sprintf("cores-%d", nc), Cores: nc, Workers: nc,
			SimExecS: res.SimTime, SimCommS: res.SimComm,
			TotalWords: res.TotalExpandWords + res.TotalFoldWords,
			WallMs:     float64(res.Wall.Microseconds()) / 1000,
		})
	}
	speedups(bfsRun.Points)
	doc.Runs = append(doc.Runs, bfsRun)

	ssspRun := PoolRun{Name: "sssp-2d-delta128", Algo: "sssp", Wire: frontier.WireHybrid.String()}
	for _, nc := range poolCores {
		opts := sssp.DefaultOptions(wsrc)
		opts.Delta = 128
		opts.Wire = frontier.WireHybrid
		opts.Cores = nc
		opts.Workers = nc
		res, err := sssp.Run2D(w.World, wstores, opts)
		if err != nil {
			return err
		}
		ssspRun.Points = append(ssspRun.Points, CorePoint{
			Name: fmt.Sprintf("cores-%d", nc), Cores: nc, Workers: nc,
			SimExecS: res.SimTime, SimCommS: res.SimComm,
			TotalWords: res.TotalWords(),
			WallMs:     float64(res.Wall.Microseconds()) / 1000,
		})
	}
	speedups(ssspRun.Points)
	doc.Runs = append(doc.Runs, ssspRun)

	if err := writeDoc(path, doc); err != nil {
		return err
	}
	for _, run := range doc.Runs {
		for _, pt := range run.Points {
			fmt.Printf("pool %-18s cores=%d simexec %.4fs (%.2fx) wall %.1fms (%.2fx)\n",
				run.Name, pt.Cores, pt.SimExecS, pt.SimSpeedup, pt.WallMs, pt.WallSpeedup)
		}
	}
	fmt.Printf("cores sweep on %d host CPUs (wall fields are context, not gated)\n", doc.HostCPUs)
	return nil
}
