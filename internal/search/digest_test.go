package search

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/graph"
	"repro/internal/partition"
)

// TestStoreDigestPinned: the store digest a snapshot carries is fixed by
// the graph alone, so a snapshot written by an earlier build restores on
// this one. Each case folds every rank's storeDigest into one value. The
// pinned values were read from stores that kept each entry's global row
// vertex, so a digest over the entries' local rows (RowIdx) fails here.
func TestStoreDigestPinned(t *testing.T) {
	const n = 2000
	p := graph.Params{N: n, K: 8, Seed: 11}
	spec := graph.WeightSpec{MaxWeight: 256, Seed: 3}
	weighted := func(fn func(u, v graph.Vertex, w uint32)) error {
		return p.VisitEdges(func(u, v graph.Vertex) { fn(u, v, spec.WeightOf(u, v)) })
	}
	for _, tc := range []struct {
		name     string
		r, c     int
		weighted bool
		want     uint64
	}{
		{"4x4", 4, 4, false, 0x2c80ff05e2d80bfb},
		{"4x4-weighted", 4, 4, true, 0x615b637ad9c44532},
		{"1x16", 1, 16, false, 0x4c7954f08696aa89},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := partition.NewLayout2D(n, tc.r, tc.c)
			if err != nil {
				t.Fatal(err)
			}
			var stores []*partition.Store2D
			if tc.weighted {
				stores, err = partition.Build2DWeighted(l, weighted)
			} else {
				stores, err = partition.Build2D(l, p.VisitEdges)
			}
			if err != nil {
				t.Fatal(err)
			}
			h := uint64(0)
			for _, st := range stores {
				d := storeDigest(st)
				h = checkpoint.Fingerprint(h, d[0], d[1], d[2])
			}
			if h != tc.want {
				t.Errorf("store digest %#x, want %#x", h, tc.want)
			}
		})
	}
}
