package comm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/torus"
)

// exchange is one round of the ledger tests' traffic: every rank sends
// every other rank a blocking, a chunked and an offloaded message whose
// sizes depend on the pair and the round, and receives theirs.
func exchange(c *Comm, round int) {
	me, p := c.Rank(), c.Size()
	for step := 1; step < p; step++ {
		to, from := (me+step)%p, (me-step+p)%p
		c.Send(to, 1, make([]uint32, exchangeWords(me, to, 0, round)))
		c.SendChunked(to, 2, make([]uint32, exchangeWords(me, to, 1, round)), exchangeChunk)
		c.Isend(to, 3, make([]uint32, exchangeWords(me, to, 2, round)))
		c.Recv(from, 1)
		c.RecvChunked(from, 2, exchangeChunk)
		req := c.Irecv(from, 3)
		req.Wait()
	}
}

const exchangeChunk = 5

func exchangeWords(src, dst, kind, round int) int {
	return (3*src + 7*dst + 11*kind + 5*round) % 23
}

// TestLinkLedgerMatchesRouteMap replays a recorded run — one exchange
// round with a duplicating, dropping, corrupting fault plan on the wire
// — through the ledger the transport kept before the per-peer table: a
// map keyed by link endpoints and per-rank counters, charged by walking
// Torus.Route per received message. Every rank's derived receive
// counters and link loads, and LinkLoads' run summary, must be
// identical (each logical message counted once, whatever the wire did
// to its copies), and the run must send exactly what it receives.
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
			plan := &fault.Plan{Seed: 11, PDrop: 0.1, PDuplicate: 0.1, PCorrupt: 0.1}
			w.SetFault(plan)
			comms, err := w.Run(func(c *Comm) { exchange(c, 0) })
			if err != nil {
				t.Fatal(err)
			}
			if MergeFaultStats(comms).Injected() == 0 {
				t.Fatal("the fault plan injected nothing")
			}

			// The reference ledger: what each receive charged, message by
			// message (a chunked logical message is a header plus pieces).
			type link struct{ from, to torus.Coord }
			type counts struct{ msgs, bytes, hops, hopBytes uint64 }
			perRank := make([]map[link]uint64, tc.p)
			recv := make([]counts, tc.p)
			merged := map[link]uint64{}
			charge := func(src, dst, payloadWords int) {
				b := uint64(messageHeaderBytes + 4*payloadWords)
				path := tc.tor.Route(nil, m.Coords[src], m.Coords[dst])
				hops := uint64(len(path) - 1)
				recv[dst].msgs++
				recv[dst].bytes += b
				recv[dst].hops += hops
				recv[dst].hopBytes += hops * b
				for i := 1; i < len(path); i++ {
					l := link{path[i-1], path[i]}
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
					charge(src, dst, exchangeWords(src, dst, 0, 0))
					charge(src, dst, 1) // chunk-count header
					for left := exchangeWords(src, dst, 1, 0); left > 0; left -= exchangeChunk {
						charge(src, dst, min(left, exchangeChunk))
					}
					charge(src, dst, exchangeWords(src, dst, 2, 0))
				}
			}
			summary := func(loads map[link]uint64) (maxB, total uint64, links int) {
				for _, v := range loads {
					total += v
					maxB = max(maxB, v)
				}
				return maxB, total, len(loads)
			}

			wantMax, wantTotal, wantLinks := summary(merged)
			gotMax, gotTotal, gotLinks := LinkLoads(comms)
			if gotMax != wantMax || gotTotal != wantTotal || gotLinks != wantLinks {
				t.Fatalf("LinkLoads = max %d, total %d over %d links; the route-map ledger has max %d, total %d over %d",
					gotMax, gotTotal, gotLinks, wantMax, wantTotal, wantLinks)
			}
			var sentMsgs, recvMsgs, sentBytes, recvBytes uint64
			for rank, c := range comms {
				got := counts{c.MsgsRecv(), c.BytesRecv(), c.HopsRecv(), c.HopBytes()}
				if got != recv[rank] {
					t.Fatalf("rank %d received (msgs, bytes, hops, hop bytes) %v; the per-message ledger has %v", rank, got, recv[rank])
				}
				wantMax, wantTotal, wantLinks := summary(perRank[rank])
				gotMax, gotTotal, gotLinks := LinkLoads(comms[rank : rank+1])
				if gotMax != wantMax || gotTotal != wantTotal || gotLinks != wantLinks {
					t.Fatalf("rank %d's link loads: max %d, total %d over %d links; the route-map ledger has max %d, total %d over %d",
						rank, gotMax, gotTotal, gotLinks, wantMax, wantTotal, wantLinks)
				}
				sentMsgs += c.MsgsSent()
				recvMsgs += c.MsgsRecv()
				sentBytes += c.BytesSent()
				recvBytes += c.BytesRecv()
			}
			if sentMsgs != recvMsgs || sentBytes != recvBytes {
				t.Fatalf("the run sent %d messages (%d bytes) and received %d (%d bytes)", sentMsgs, sentBytes, recvMsgs, recvBytes)
			}
		})
	}
}

// TestStateRoundTrip stops a faulted run between two exchange rounds,
// carries every rank's snapshot through Encode and DecodeState, and
// restores it onto a fresh rank that runs the second round. Every
// clock, traffic and fault counter and the link loads must match the
// run that never stopped; a snapshot of another world size must be
// refused with both sizes named.
func TestStateRoundTrip(t *testing.T) {
	const p = 4
	plan := &fault.Plan{Seed: 5, PDrop: 0.15, PDuplicate: 0.15, PCorrupt: 0.15}
	run := func(p int, body func(c *Comm)) ([]*Comm, error) {
		w := newTestWorld(t, p)
		w.SetFault(plan)
		return w.Run(body)
	}
	snaps := make([][]uint32, p)
	whole, err := run(p, func(c *Comm) {
		exchange(c, 0)
		enc := &checkpoint.Enc{}
		c.CaptureState().Encode(enc)
		snaps[c.Rank()] = enc.Payload()
		c.Barrier()
		exchange(c, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	restore := func(c *Comm) {
		dec := checkpoint.NewDec(snaps[c.Rank()%p])
		c.RestoreState(DecodeState(dec))
		dec.Done()
	}
	resumed, err := run(p, func(c *Comm) {
		restore(c)
		c.Barrier()
		exchange(c, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	readings := func(c *Comm) string {
		return fmt.Sprint(c.Clock(), c.CommTime(), c.CompTime(), c.OverlapTime(),
			c.MsgsSent(), c.BytesSent(), c.MsgsRecv(), c.BytesRecv(), c.HopsRecv(), c.HopBytes(), c.FaultStats())
	}
	if MergeFaultStats(whole).Injected() == 0 {
		t.Fatal("the fault plan injected nothing")
	}
	for r := range whole {
		if a, b := readings(whole[r]), readings(resumed[r]); a != b {
			t.Errorf("rank %d: never stopped %s, restored %s", r, a, b)
		}
	}
	a1, a2, a3 := LinkLoads(whole)
	b1, b2, b3 := LinkLoads(resumed)
	if a1 != b1 || a2 != b2 || a3 != b3 {
		t.Errorf("LinkLoads: never stopped (%d, %d, %d), restored (%d, %d, %d)", a1, a2, a3, b1, b2, b3)
	}

	_, err = run(9, restore)
	if err == nil || !strings.Contains(err.Error(), "4-rank") || !strings.Contains(err.Error(), "9-rank") {
		t.Fatalf("a 4-rank snapshot restored into a 9-rank world: err = %v", err)
	}
}
