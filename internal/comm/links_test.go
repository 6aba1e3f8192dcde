package comm

import (
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/torus"
)

// TestLinkLedgerMatchesRouteMap replays a recorded run — every rank
// sends every other rank a blocking, a chunked and an offloaded message
// of rank-dependent sizes, with a duplicating, dropping fault plan on
// the wire — through the ledger the transport kept before the route
// table: a map keyed by link endpoints, charged by walking Torus.Route
// per message. LinkLoads' summary and every rank's captured per-link
// loads must be identical (each logical message counted once, whatever
// the wire did to its copies).
func TestLinkLedgerMatchesRouteMap(t *testing.T) {
	for _, tc := range []struct {
		name string
		tor  torus.Torus
		p    int
	}{
		{"fitted 2x2", torus.FitTorus(4), 4},
		{"uneven 5x3x2", torus.Torus{DX: 5, DY: 3, DZ: 2}, 27},
		{"ring of 16", torus.Torus{DX: 16, DY: 1, DZ: 1}, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := torus.RowMajor(tc.tor, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			w, err := NewWorld(Config{P: tc.p, Mapping: m})
			if err != nil {
				t.Fatal(err)
			}
			w.SetFault(&fault.Plan{Seed: 11, PDrop: 0.1, PDuplicate: 0.1, PCorrupt: 0.1})
			const chunk = 5
			words := func(src, dst, kind int) int { return (3*src + 7*dst + 11*kind) % 23 }
			states := make([]State, tc.p)
			comms, err := w.Run(func(c *Comm) {
				me := c.Rank()
				for step := 1; step < tc.p; step++ {
					to, from := (me+step)%tc.p, (me-step+tc.p)%tc.p
					c.Send(to, 1, make([]uint32, words(me, to, 0)))
					c.SendChunked(to, 2, make([]uint32, words(me, to, 1)), chunk)
					c.Isend(to, 3, make([]uint32, words(me, to, 2)))
					c.Recv(from, 1)
					c.RecvChunked(from, 2, chunk)
					req := c.Irecv(from, 3)
					req.Wait()
				}
				states[me] = c.CaptureState()
			})
			if err != nil {
				t.Fatal(err)
			}

			// The reference ledger: what each receive charged, message by
			// message (a chunked logical message is a header plus pieces).
			type link struct{ from, to torus.Coord }
			perRank := make([]map[link]uint64, tc.p)
			merged := map[link]uint64{}
			charge := func(src, dst, payloadWords int) {
				path := tc.tor.Route(m.Coords[src], m.Coords[dst])
				for i := 1; i < len(path); i++ {
					l := link{path[i-1], path[i]}
					b := uint64(messageHeaderBytes + 4*payloadWords)
					perRank[dst][l] += b
					merged[l] += b
				}
			}
			for dst := range perRank {
				perRank[dst] = map[link]uint64{}
				for src := 0; src < tc.p; src++ {
					if src == dst {
						continue
					}
					charge(src, dst, words(src, dst, 0))
					charge(src, dst, 1) // chunk-count header
					for left := words(src, dst, 1); left > 0; left -= chunk {
						charge(src, dst, min(left, chunk))
					}
					charge(src, dst, words(src, dst, 2))
				}
			}
			var wantMax, wantTotal uint64
			for _, v := range merged {
				wantTotal += v
				wantMax = max(wantMax, v)
			}
			gotMax, gotTotal, gotLinks := LinkLoads(comms)
			if gotMax != wantMax || gotTotal != wantTotal || gotLinks != len(merged) {
				t.Fatalf("LinkLoads = max %d, total %d over %d links; the route-map ledger has max %d, total %d over %d",
					gotMax, gotTotal, gotLinks, wantMax, wantTotal, len(merged))
			}
			for rank, st := range states {
				if len(st.Links) != len(perRank[rank]) {
					t.Fatalf("rank %d captured %d loaded links, the route-map ledger has %d", rank, len(st.Links), len(perRank[rank]))
				}
				for _, l := range st.Links {
					if want := perRank[rank][link{l.From, l.To}]; l.Bytes != want {
						t.Fatalf("rank %d link %v→%v: %d bytes, the route-map ledger has %d", rank, l.From, l.To, l.Bytes, want)
					}
				}
				if !slices.IsSortedFunc(st.Links, func(a, b LinkLoad) int {
					if a.From != b.From {
						return cmpCoord(a.From, b.From)
					}
					return cmpCoord(a.To, b.To)
				}) {
					t.Fatalf("rank %d: captured links are not in coordinate order", rank)
				}
			}
		})
	}
}

func cmpCoord(a, b torus.Coord) int {
	if a == b {
		return 0
	}
	if coordLess(a, b) {
		return -1
	}
	return 1
}
