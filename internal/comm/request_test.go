package comm

import (
	"math"
	"testing"
)

// clockIdentity asserts the ledger invariant every operation maintains:
// clock == compTime + commTime - overlapTime.
func clockIdentity(t *testing.T, c *Comm) {
	t.Helper()
	want := c.CompTime() + c.CommTime() - c.OverlapTime()
	if math.Abs(c.Clock()-want) > 1e-12 {
		t.Errorf("rank %d: clock %.12g != comp %.12g + comm %.12g - overlap %.12g",
			c.Rank(), c.Clock(), c.CompTime(), c.CommTime(), c.OverlapTime())
	}
	if c.OverlapTime() > c.CommTime()+1e-12 {
		t.Errorf("rank %d: overlap %.12g exceeds comm %.12g", c.Rank(), c.OverlapTime(), c.CommTime())
	}
	if c.OverlapTime() < 0 {
		t.Errorf("rank %d: negative overlap %.12g", c.Rank(), c.OverlapTime())
	}
}

// TestIrecvMatchesRecvPayloads: nonblocking receives deliver the same
// payloads as blocking ones, chunked or not.
func TestIrecvMatchesRecvPayloads(t *testing.T) {
	for _, chunk := range []int{0, 3} {
		w := newTestWorld(t, 2)
		_, err := w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				c.IsendChunked(1, 7, []uint32{1, 2, 3, 4, 5, 6, 7}, chunk)
				c.IsendChunked(1, 8, nil, chunk)
			} else {
				ra := c.IrecvChunked(0, 7, chunk)
				rb := c.IrecvChunked(0, 8, chunk)
				got := ra.Wait()
				if len(got) != 7 || got[6] != 7 {
					panic("wrong payload via Wait")
				}
				if second := ra.Wait(); &second[0] != &got[0] {
					panic("second Wait returned a different payload")
				}
				if empty := rb.Wait(); len(empty) != 0 {
					panic("empty payload came back non-empty")
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestOverlapHidesTransit: compute charged between Irecv and Wait
// covers the transit, so the async receiver finishes earlier than the
// sync one and books the hidden seconds in OverlapTime.
func TestOverlapHidesTransit(t *testing.T) {
	payload := make([]uint32, 1<<16) // big enough that transit dominates

	run := func(async bool) *Comm {
		w := newTestWorld(t, 2)
		comms, err := w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				c.Send(1, 1, payload)
				return
			}
			if async {
				req := c.Irecv(0, 1)
				c.Compute(1.0) // plenty to cover the transit
				req.Wait()
			} else {
				c.Recv(0, 1) // serialize the transit, then compute
				c.Compute(1.0)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return comms[1]
	}

	async, sync := run(true), run(false)
	clockIdentity(t, async)
	clockIdentity(t, sync)
	if async.OverlapTime() <= 0 {
		t.Fatalf("async receiver hid nothing: overlap=%g", async.OverlapTime())
	}
	if sync.OverlapTime() != 0 {
		t.Fatalf("sync receiver recorded overlap %g", sync.OverlapTime())
	}
	if async.Clock() >= sync.Clock() {
		t.Fatalf("async clock %g not earlier than sync %g", async.Clock(), sync.Clock())
	}
	// The clock saving is at least the audited overlap (it can exceed it
	// by sender-side skew the sync receiver waited out, which the async
	// schedule covers with compute without any wire being busy), and the
	// async schedule never charges more communication.
	if saving := sync.Clock() - async.Clock(); saving < async.OverlapTime()-1e-12 {
		t.Fatalf("clock saving %g below overlap %g", saving, async.OverlapTime())
	}
	if async.CommTime() > sync.CommTime()+1e-12 {
		t.Fatalf("async comm ledger %g exceeds sync %g", async.CommTime(), sync.CommTime())
	}
}

// TestOverlapNeverExceedsTransit: with no compute between post and
// wait, nothing is hidden and the async receive costs exactly the sync
// one.
func TestNoComputeNoOverlap(t *testing.T) {
	w := newTestWorld(t, 2)
	comms, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []uint32{1, 2, 3})
		} else {
			req := c.Irecv(0, 1)
			req.Wait()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := comms[1].OverlapTime(); got != 0 {
		t.Fatalf("overlap %g without any concurrent activity", got)
	}
	clockIdentity(t, comms[1])
}

// TestChunkedOverlapIdentity: chunked nonblocking receives keep the
// ledger identity and hide transit under interleaved compute.
func TestChunkedOverlapIdentity(t *testing.T) {
	payload := make([]uint32, 4096)
	w := newTestWorld(t, 2)
	comms, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.IsendChunked(1, 1, payload, 256)
			return
		}
		req := c.IrecvChunked(0, 1, 256)
		c.Compute(0.5)
		got := req.Wait()
		if len(got) != len(payload) {
			panic("chunked reassembly lost words")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range comms {
		clockIdentity(t, c)
	}
	if comms[1].OverlapTime() <= 0 {
		t.Fatal("chunked wait hid nothing")
	}
}

// TestIsendCompletesImmediately: send requests are done at post.
func TestIsendCompletesImmediately(t *testing.T) {
	w := newTestWorld(t, 2)
	_, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			req := c.Isend(1, 1, []uint32{5})
			if req.Wait() != nil {
				panic("send request returned a payload")
			}
		} else {
			c.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWaitOrderPerSource: requests from one source must be waited in
// posting order; interleaving sources is fine.
func TestWaitOrderPerSource(t *testing.T) {
	w := newTestWorld(t, 3)
	_, err := w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(2, 1, []uint32{10})
			c.Send(2, 2, []uint32{11})
		case 1:
			c.Send(2, 3, []uint32{20})
		case 2:
			a := c.Irecv(0, 1)
			b := c.Irecv(1, 3)
			d := c.Irecv(0, 2)
			if got := b.Wait(); got[0] != 20 {
				panic("wrong payload from rank 1")
			}
			if got := a.Wait(); got[0] != 10 {
				panic("wrong first payload from rank 0")
			}
			if got := d.Wait(); got[0] != 11 {
				panic("wrong second payload from rank 0")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
