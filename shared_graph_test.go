package bgl

// The distributed graph is read-only: a DistGraph's stores are written
// by Distribute and never again, so any number of Clusters can search
// one DistGraph at the same time. The test below proves it under the
// race detector (`make race-pool`) rather than asserting it: a search
// that wrote anything into a store — a probe counter, a cache — would
// race with the other cluster's search of the same store.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestSharedGraphConcurrentClusters runs two Clusters at once over one
// DistGraph through every engine family, on every partitioning, with
// the scans inline (1 worker) and on the pool (4 workers). Each answer
// must match the serial oracle, and each whole Result — HashProbes and
// EdgesScanned included, wall time excepted — must equal the same run
// executed alone.
func TestSharedGraphConcurrentClusters(t *testing.T) {
	// Large enough that a rank's frontier and owned range span several
	// pool chunks, so 4 workers really run the staged path.
	gU, err := Generate(12000, 8, 33)
	if err != nil {
		t.Fatal(err)
	}
	gW, err := GenerateWeighted(12000, 8, 33, WithMaxWeight(40))
	if err != nil {
		t.Fatal(err)
	}
	src := gU.LargestComponentVertex()
	tgt := Vertex(int(src+737) % gU.N())
	srcs := []Vertex{src, tgt, 3, 11}
	wantLevels := make([][]int32, len(srcs))
	for i, s := range srcs {
		wantLevels[i] = gU.SerialBFS(s)
	}
	wantDist := gW.SerialDijkstra(src)

	// run is one search on cluster cl; it checks the answer against the
	// oracle and returns the Result with the wall time zeroed.
	type run struct {
		name string
		do   func(cl *Cluster, dgU, dgW *DistGraph, opts []Option) (any, error)
	}
	checkLevels := func(got, want []int32) error {
		for v := range want {
			if got[v] != want[v] {
				return fmt.Errorf("level[%d] = %d, oracle %d", v, got[v], want[v])
			}
		}
		return nil
	}
	bfsRun := func(dir Direction) func(*Cluster, *DistGraph, *DistGraph, []Option) (any, error) {
		return func(cl *Cluster, dgU, _ *DistGraph, opts []Option) (any, error) {
			res, err := cl.BFS(dgU, src, append([]Option{WithDirection(dir)}, opts...)...)
			if err != nil {
				return nil, err
			}
			return zeroWallBFS(res), checkLevels(res.Levels, wantLevels[0])
		}
	}
	runs := []run{
		{"bfs-topdown", bfsRun(TopDown)},
		{"bfs-dirop", bfsRun(DirectionOptimizing)},
		{"search", func(cl *Cluster, dgU, _ *DistGraph, opts []Option) (any, error) {
			res, err := cl.Search(dgU, src, tgt, opts...)
			if err != nil {
				return nil, err
			}
			if want := wantLevels[0][tgt]; !res.Found || res.Distance != want {
				return nil, fmt.Errorf("search found=%v distance %d, oracle %d", res.Found, res.Distance, want)
			}
			return zeroWallBFS(res), nil
		}},
		{"multibfs", func(cl *Cluster, dgU, _ *DistGraph, opts []Option) (any, error) {
			res, err := cl.MultiBFS(dgU, srcs, opts...)
			if err != nil {
				return nil, err
			}
			for lane := range srcs {
				if err := checkLevels(res.LaneLevels[lane], wantLevels[lane]); err != nil {
					return nil, fmt.Errorf("lane %d: %w", lane, err)
				}
			}
			return zeroWallMulti(res), nil
		}},
		{"sssp", func(cl *Cluster, _, dgW *DistGraph, opts []Option) (any, error) {
			res, err := cl.SSSP(dgW, src, opts...)
			if err != nil {
				return nil, err
			}
			for v, want := range wantDist {
				if res.Dist[v] != want {
					return nil, fmt.Errorf("dist[%d] = %d, oracle %d", v, res.Dist[v], want)
				}
			}
			return zeroWallSSSP(res), nil
		}},
	}

	for _, part := range []Partition{Part2D, Part1DRow, Part1DCol} {
		clusters := make([]*Cluster, 2)
		for i := range clusters {
			if clusters[i], err = NewCluster(ClusterConfig{R: 2, C: 2}); err != nil {
				t.Fatal(err)
			}
		}
		dgU, err := clusters[0].Distribute(gU, WithPartition(part))
		if err != nil {
			t.Fatal(err)
		}
		dgW, err := clusters[0].Distribute(gW, WithPartition(part))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", part, workers), func(t *testing.T) {
				opts := []Option{WithWorkers(workers), WithWire(WireHybrid)}
				alone := make([]any, len(runs))
				for i, r := range runs {
					if alone[i], err = r.do(clusters[0], dgU, dgW, opts); err != nil {
						t.Fatalf("%s alone: %v", r.name, err)
					}
				}
				// Both clusters go through every run at once, in
				// opposite orders, so different engines overlap too.
				var wg sync.WaitGroup
				start := make(chan struct{})
				for ci, cl := range clusters {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						for k := range runs {
							i := k
							if ci == 1 {
								i = len(runs) - 1 - k
							}
							got, err := runs[i].do(cl, dgU, dgW, opts)
							if err != nil {
								t.Errorf("cluster %d %s: %v", ci, runs[i].name, err)
							} else if !reflect.DeepEqual(got, alone[i]) {
								t.Errorf("cluster %d %s: Result differs from the same run executed alone", ci, runs[i].name)
							}
						}
					}()
				}
				close(start)
				wg.Wait()
			})
		}
	}
}
