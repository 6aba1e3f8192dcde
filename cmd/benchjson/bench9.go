package main

// BENCH_PR9: the graphd service baseline. Two halves:
//
//  1. A deterministic simulated comparison on the headline workload:
//     the shared 64-source query set swept in coalesced chunks at
//     several concurrency levels (a service at concurrency c batches
//     ~c queries per sweep) versus the same 64 queries run one at a
//     time. These fields are benchdiff-gated: multi_words exactly,
//     *_simexec_s at 5% — both pure simulated values.
//
//  2. A real end-to-end QPS measurement: two in-process graphd
//     servers on a smaller graph — one batching, one built with
//     MaxBatch 1 so every query runs alone — serving the same seeded
//     query set over real HTTP.
//     Wall QPS depends on the host, so those leaves use non-gated
//     names and are recorded as context.
//
// The PR 9 acceptance bar: the batched trajectory moves strictly fewer
// words AND less total simulated execution than one-at-a-time, with
// every batched lane verified equal to its independent run.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	bgl "repro"
	"repro/internal/bfs"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/graphd"
	"repro/internal/harness"
)

// ServicePoint is the simulated cost of answering the 64-query set in
// coalesced sweeps of (up to) Concurrency lanes.
type ServicePoint struct {
	Concurrency   int     `json:"concurrency"`
	Sweeps        int     `json:"sweeps"`
	MultiWords    int64   `json:"multi_words"`
	MultiSimExecS float64 `json:"multi_simexec_s"`
	WordsRatio    float64 `json:"independent_over_multi_words"`
	ExecRatio     float64 `json:"independent_over_multi_simexec"`
}

// WallPoint is one concurrency level's real HTTP throughput against
// the batching and non-batching servers (host-dependent; not gated).
type WallPoint struct {
	Concurrency   int     `json:"concurrency"`
	BatchedQPS    float64 `json:"batched_wall_qps"`
	UnbatchedQPS  float64 `json:"unbatched_wall_qps"`
	QPSRatio      float64 `json:"batched_over_unbatched_qps"`
	MeanBatchSize float64 `json:"mean_batch_size"`
}

// Baseline9 is the PR 9 document: the graphd batching acceptance
// metric plus service QPS context.
type Baseline9 struct {
	N                int            `json:"n"`
	K                float64        `json:"k"`
	Seed             int64          `json:"seed"`
	Mesh             string         `json:"mesh"`
	Queries          int            `json:"queries"`
	Wire             string         `json:"wire"`
	IndependentWords int64          `json:"independent_words"`
	IndependentExecS float64        `json:"independent_simexec_s"`
	Batched          []ServicePoint `json:"batched"`
	Verified         bool           `json:"answers_verified"`
	StrictlyFewer    bool           `json:"batched_strictly_fewer_words"`
	LowerExec        bool           `json:"batched_lower_simexec"`
	ServiceWall      struct {
		N      int         `json:"service_n"`
		Mesh   string      `json:"service_mesh"`
		Points []WallPoint `json:"points"`
	} `json:"service_wall"`
}

// serviceConcurrencies are the modeled client concurrency levels: a
// service at concurrency c coalesces ~c queries per sweep.
var serviceConcurrencies = [...]int{4, 16, 64}

// writeServiceBaseline writes BENCH_PR9.json. srcs/inds are the shared
// 64-source query set and its independent one-at-a-time runs.
func writeServiceBaseline(path string, w *harness.Workload, srcs []graph.Vertex, inds []indepRun,
	n int, k float64, seed int64, r, c int) error {
	doc := Baseline9{N: n, K: k, Seed: seed, Mesh: fmt.Sprintf("%dx%d", r, c),
		Queries: len(srcs), Wire: frontier.WireAuto.String(), Verified: true}
	for _, ind := range inds {
		doc.IndependentWords += ind.words
		doc.IndependentExecS += ind.simExec
	}

	for _, conc := range serviceConcurrencies {
		pt := ServicePoint{Concurrency: conc}
		for lo := 0; lo < len(srcs); lo += conc {
			hi := lo + conc
			if hi > len(srcs) {
				hi = len(srcs)
			}
			opts := bfs.DefaultOptions(0)
			opts.Wire = frontier.WireAuto
			opts.Metrics = reg
			mres, err := bfs.MultiRun2D(w.World, w.Stores, srcs[lo:hi], opts)
			if err != nil {
				return err
			}
			pt.Sweeps++
			pt.MultiWords += mres.TotalExpandWords + mres.TotalFoldWords
			pt.MultiSimExecS += mres.SimTime
			for lane := lo; lane < hi; lane++ {
				for v, want := range inds[lane].levels {
					if mres.LaneLevels[lane-lo][v] != want {
						doc.Verified = false
						return fmt.Errorf("benchjson: concurrency %d lane %d level[%d] = %d, independent run %d",
							conc, lane, v, mres.LaneLevels[lane-lo][v], want)
					}
				}
			}
		}
		if pt.MultiWords > 0 {
			pt.WordsRatio = float64(doc.IndependentWords) / float64(pt.MultiWords)
		}
		if pt.MultiSimExecS > 0 {
			pt.ExecRatio = doc.IndependentExecS / pt.MultiSimExecS
		}
		doc.Batched = append(doc.Batched, pt)
	}
	doc.StrictlyFewer, doc.LowerExec = true, true
	for _, pt := range doc.Batched {
		doc.StrictlyFewer = doc.StrictlyFewer && pt.MultiWords < doc.IndependentWords
		doc.LowerExec = doc.LowerExec && pt.MultiSimExecS < doc.IndependentExecS
	}

	if err := measureServiceWall(&doc); err != nil {
		return err
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for _, pt := range doc.Batched {
		fmt.Printf("service conc=%-3d %d sweeps: %d words vs %d (%.2fx), simexec %.4fs vs %.4fs (%.1fx)\n",
			pt.Concurrency, pt.Sweeps, pt.MultiWords, doc.IndependentWords, pt.WordsRatio,
			pt.MultiSimExecS, doc.IndependentExecS, pt.ExecRatio)
	}
	for _, pt := range doc.ServiceWall.Points {
		fmt.Printf("service wall conc=%-3d batched %.1f QPS vs unbatched %.1f (%.2fx, mean batch %.1f)\n",
			pt.Concurrency, pt.BatchedQPS, pt.UnbatchedQPS, pt.QPSRatio, pt.MeanBatchSize)
	}
	fmt.Printf("wrote %s: batched strictly fewer words: %v, lower simexec: %v, answers verified: %v\n",
		path, doc.StrictlyFewer, doc.LowerExec, doc.Verified)
	return nil
}

// wallService is one live graphd instance behind a real listener.
type wallService struct {
	srv    *graphd.Server
	hs     *http.Server
	client *graphd.Client
}

// startWallService starts a graphd over g; maxBatch 0 is the service
// default (up to 64 lanes per sweep), 1 the unbatched control.
func startWallService(g *bgl.Graph, maxBatch int) (*wallService, error) {
	srv, err := graphd.NewServer(graphd.Config{Graph: g, R: 2, C: 2, MaxBatch: maxBatch, MaxWaiting: 256})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	return &wallService{
		srv: srv, hs: hs,
		client: graphd.NewClient("http://"+ln.Addr().String(), graphd.WithTimeout(2*time.Minute)),
	}, nil
}

func (s *wallService) stop() {
	_ = s.hs.Close()
	s.srv.Close()
}

// measureServiceWall fires the same query set at a batching and a
// non-batching graphd over real HTTP and records wall QPS. The graph
// is a smaller relative of the headline workload so the one-at-a-time
// side stays affordable; every answer's reach count is still verified
// against the serial oracle.
func measureServiceWall(doc *Baseline9) error {
	const (
		svcN    = 20000
		svcK    = 10
		svcSeed = 42
	)
	doc.ServiceWall.N = svcN
	doc.ServiceWall.Mesh = "2x2"

	g, err := bgl.Generate(svcN, svcK, svcSeed)
	if err != nil {
		return err
	}
	srcs := multiSources(g.SerialBFS(g.LargestComponentVertex()), bfs.MaxLanes)
	wantReached := map[int]int{}
	for _, s := range srcs {
		if _, ok := wantReached[int(s)]; ok {
			continue
		}
		reached := 0
		for _, l := range g.SerialBFS(s) {
			if l != bgl.Unreached {
				reached++
			}
		}
		wantReached[int(s)] = reached
	}

	// fire sends every query from conc workers and returns the wall
	// seconds and the server's mean batch size over the run.
	fire := func(ws *wallService, conc int) (float64, float64, error) {
		before, err := ws.client.Stats()
		if err != nil {
			return 0, 0, err
		}
		var failed atomic.Int64
		work := make(chan graph.Vertex)
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < conc; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := range work {
					src := int(s)
					resp, err := ws.client.BFS(graphd.BFSRequest{Source: &src})
					if err != nil || resp.Reached != wantReached[src] {
						failed.Add(1)
					}
				}
			}()
		}
		for _, s := range srcs {
			work <- s
		}
		close(work)
		wg.Wait()
		wall := time.Since(start).Seconds()
		if n := failed.Load(); n > 0 {
			return 0, 0, fmt.Errorf("benchjson: %d service answers failed oracle verification", n)
		}
		after, err := ws.client.Stats()
		if err != nil {
			return 0, 0, err
		}
		mean := 0.0
		if db := after.Queries.Batches - before.Queries.Batches; db > 0 {
			mean = float64(after.Queries.BatchedQueries-before.Queries.BatchedQueries) / float64(db)
		}
		return wall, mean, nil
	}

	batched, err := startWallService(g, 0)
	if err != nil {
		return err
	}
	defer batched.stop()
	unbatched, err := startWallService(g, 1) // every query runs alone
	if err != nil {
		return err
	}
	defer unbatched.stop()

	// One warmup query against each server so first-request setup cost
	// stays out of the measurement.
	warm := int(srcs[0])
	if _, err := batched.client.BFS(graphd.BFSRequest{Source: &warm}); err != nil {
		return err
	}
	if _, err := unbatched.client.BFS(graphd.BFSRequest{Source: &warm}); err != nil {
		return err
	}

	for _, conc := range serviceConcurrencies {
		bWall, bMean, err := fire(batched, conc)
		if err != nil {
			return err
		}
		uWall, _, err := fire(unbatched, conc)
		if err != nil {
			return err
		}
		pt := WallPoint{
			Concurrency:   conc,
			BatchedQPS:    float64(len(srcs)) / bWall,
			UnbatchedQPS:  float64(len(srcs)) / uWall,
			MeanBatchSize: bMean,
		}
		if pt.UnbatchedQPS > 0 {
			pt.QPSRatio = pt.BatchedQPS / pt.UnbatchedQPS
		}
		doc.ServiceWall.Points = append(doc.ServiceWall.Points, pt)
	}
	return nil
}
