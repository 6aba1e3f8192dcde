package main

// BENCH_PR9: the graphd service baseline, a deterministic simulated
// comparison on the headline workload: the shared 64-source query set
// swept in coalesced chunks at several concurrency levels (a service at
// concurrency c batches ~c queries per sweep) versus the same 64 queries
// run one at a time. These fields are benchdiff-gated: multi_words
// exactly, *_simexec_s at 5% — both pure simulated values. Service wall
// time is the perf lab's to measure (bench/, the graphd-* workloads).
//
// The PR 9 acceptance bar: the batched trajectory moves strictly fewer
// words AND less total simulated execution than one-at-a-time, with
// every batched lane verified equal to its independent run.

import (
	"fmt"

	"repro/internal/bfs"
	"repro/internal/frontier"
	"repro/internal/graph"
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

// Baseline9 is the PR 9 document: the graphd batching acceptance
// metric.
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
}

// serviceConcurrencies are the modeled client concurrency levels: a
// service at concurrency c coalesces ~c queries per sweep.
var serviceConcurrencies = [...]int{4, 16, 64}

// writeServiceBaseline writes BENCH_PR9.json. srcs/inds are the shared
// 64-source query set and its independent one-at-a-time runs.
func writeServiceBaseline(path string, w *harness.Workload, srcs []graph.Vertex, inds []indepRun) error {
	doc := Baseline9{N: benchN, K: benchK, Seed: benchSeed, Mesh: benchMesh,
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

	if err := writeDoc(path, doc); err != nil {
		return err
	}
	for _, pt := range doc.Batched {
		fmt.Printf("service conc=%-3d %d sweeps: %d words vs %d (%.2fx), simexec %.4fs vs %.4fs (%.1fx)\n",
			pt.Concurrency, pt.Sweeps, pt.MultiWords, doc.IndependentWords, pt.WordsRatio,
			pt.MultiSimExecS, doc.IndependentExecS, pt.ExecRatio)
	}
	fmt.Printf("batched strictly fewer words: %v, lower simexec: %v, answers verified: %v\n",
		doc.StrictlyFewer, doc.LowerExec, doc.Verified)
	return nil
}
