package partition

import (
	"testing"

	"repro/internal/graph"
)

// BenchmarkResolveColumns times the one lookup a top-down scan makes per
// received frontier vertex: a 4x4 store of the perf lab's 2D graph
// (n = 100,000, k = 10), one rank resolving a sorted part of 4,096
// vertices of its block column, spread evenly over it, in ResolveBatch
// batches as the scans call it. It reports ns per vertex and fails if a
// resolve allocates.
func BenchmarkResolveColumns(b *testing.B) {
	const n, parts = 100000, 4096
	l, err := NewLayout2D(n, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	stores, err := Build2D(l, graph.Params{N: n, K: 10, Seed: 9}.VisitEdges)
	if err != nil {
		b.Fatal(err)
	}
	st := stores[l.RankAt(1, 2)]
	part := make([]uint32, parts)
	for i := range part {
		part[i] = uint32(st.ColBase) + uint32(i*len(st.ColIdx)/parts)
	}
	var cis [ResolveBatch]uint32
	var probes uint64
	resolve := func() {
		for p := part; len(p) > 0; p = p[min(len(p), ResolveBatch):] {
			probes += st.ResolveColumns(p[:min(len(p), ResolveBatch)], &cis)
		}
	}
	if a := testing.AllocsPerRun(10, resolve); a != 0 {
		b.Fatalf("resolving a part allocates %v times", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		resolve()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*parts), "ns/vertex")
	if probes == 0 {
		b.Fatal("no probe charged")
	}
}
