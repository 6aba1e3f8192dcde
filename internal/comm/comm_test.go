package comm

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/torus"
)

func newTestWorld(t *testing.T, p int) *World {
	t.Helper()
	w, err := NewWorld(Config{P: p})
	if err != nil {
		t.Fatalf("NewWorld(%d): %v", p, err)
	}
	return w
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(Config{P: 0}); err == nil {
		t.Fatal("expected error for P=0")
	}
	m, _ := torus.RowMajor(torus.MustNew(2, 1, 1), 2)
	if _, err := NewWorld(Config{P: 4, Mapping: m}); err == nil {
		t.Fatal("expected error for undersized mapping")
	}
}

func TestPointToPoint(t *testing.T) {
	w := newTestWorld(t, 2)
	comms, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []uint32{10, 20, 30})
			got := c.Recv(1, 8)
			if len(got) != 1 || got[0] != 99 {
				panic("rank 0 got wrong reply")
			}
		} else {
			got := c.Recv(0, 7)
			if len(got) != 3 || got[2] != 30 {
				panic("rank 1 got wrong payload")
			}
			c.Send(0, 8, []uint32{99})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if comms[0].MsgsSent() != 1 || comms[0].MsgsRecv() != 1 {
		t.Errorf("rank 0 counters: sent=%d recv=%d", comms[0].MsgsSent(), comms[0].MsgsRecv())
	}
	wantBytes := uint64(messageHeaderBytes + 12)
	if comms[0].BytesSent() != wantBytes {
		t.Errorf("rank 0 bytes sent = %d, want %d", comms[0].BytesSent(), wantBytes)
	}
}

func TestClockAdvancesThroughMessages(t *testing.T) {
	w := newTestWorld(t, 2)
	comms, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Compute(1e-3) // rank 0 is busy, then sends
			c.Send(1, 1, []uint32{1})
		} else {
			c.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1's clock must be after rank 0's send departure (1ms+).
	if comms[1].Clock() <= 1e-3 {
		t.Errorf("receiver clock %g did not advance past sender departure", comms[1].Clock())
	}
	if comms[1].CommTime() <= 0 {
		t.Error("receiver accumulated no comm time")
	}
	if comms[0].CompTime() < 1e-3 {
		t.Errorf("sender comp time %g < 1ms", comms[0].CompTime())
	}
}

func TestSelfSendPanics(t *testing.T) {
	w := newTestWorld(t, 2)
	_, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(0, 1, nil)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "sending to itself") {
		t.Fatalf("expected self-send panic, got %v", err)
	}
}

func TestTagMismatchPanics(t *testing.T) {
	w := newTestWorld(t, 2)
	_, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []uint32{7})
		} else {
			c.Recv(0, 2)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "expected tag") {
		t.Fatalf("expected tag mismatch panic, got %v", err)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	w := newTestWorld(t, 4)
	comms, err := w.Run(func(c *Comm) {
		c.Compute(float64(c.Rank()) * 1e-3)
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	want := comms[0].Clock()
	for r, c := range comms {
		if c.Clock() != want {
			t.Errorf("rank %d clock %g != rank 0 clock %g after barrier", r, c.Clock(), want)
		}
		if c.Clock() < 3e-3 {
			t.Errorf("rank %d clock %g below slowest rank's compute", r, c.Clock())
		}
	}
}

func TestAllReduceOps(t *testing.T) {
	w := newTestWorld(t, 5)
	var sumOK, maxOK, minOK, orOK, andOK atomic.Bool
	sumOK.Store(true)
	maxOK.Store(true)
	minOK.Store(true)
	orOK.Store(true)
	andOK.Store(true)
	_, err := w.Run(func(c *Comm) {
		r := uint64(c.Rank())
		if c.AllReduceSum(r) != 0+1+2+3+4 {
			sumOK.Store(false)
		}
		if c.AllReduceMax(r) != 4 {
			maxOK.Store(false)
		}
		if c.AllReduceMin(r+10) != 10 {
			minOK.Store(false)
		}
		if c.AllReduceOr(c.Rank() == 3) != true {
			orOK.Store(false)
		}
		if c.AllReduceOr(false) != false {
			orOK.Store(false)
		}
		if c.AllReduceAnd(true) != true {
			andOK.Store(false)
		}
		if c.AllReduceAnd(c.Rank() != 2) != false {
			andOK.Store(false)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, ok := range map[string]*atomic.Bool{"sum": &sumOK, "max": &maxOK, "min": &minOK, "or": &orOK, "and": &andOK} {
		if !ok.Load() {
			t.Errorf("allreduce %s produced wrong result", name)
		}
	}
}

func TestDeterministicClocks(t *testing.T) {
	run := func() float64 {
		w := newTestWorld(t, 8)
		comms, err := w.Run(func(c *Comm) {
			next := (c.Rank() + 1) % c.Size()
			prev := (c.Rank() + 7) % c.Size()
			for step := 0; step < 10; step++ {
				c.Send(next, step, []uint32{uint32(c.Rank())})
				c.Recv(prev, step)
				c.Compute(1e-6)
			}
			c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return MaxClock(comms)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("simulated clock not deterministic: %g vs %g", a, b)
	}
	if a <= 0 {
		t.Fatal("simulated clock did not advance")
	}
}

func TestMeshGroups(t *testing.T) {
	m, err := NewMesh(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.P() != 12 {
		t.Fatalf("P = %d", m.P())
	}
	rank := m.RankAt(1, 2) // = 6
	if rank != 6 || m.RowOf(rank) != 1 || m.ColOf(rank) != 2 {
		t.Fatalf("mesh arithmetic broken: rank=%d row=%d col=%d", rank, m.RowOf(rank), m.ColOf(rank))
	}
	row := m.RowGroup(rank)
	if row.Size() != 4 || row.Me != 2 {
		t.Fatalf("row group = %+v", row)
	}
	for j, r := range row.Ranks {
		if m.RowOf(r) != 1 || m.ColOf(r) != j {
			t.Fatalf("row group member %d wrong: %d", j, r)
		}
	}
	col := m.ColGroup(rank)
	if col.Size() != 3 || col.Me != 1 {
		t.Fatalf("col group = %+v", col)
	}
	for i, r := range col.Ranks {
		if m.ColOf(r) != 2 || m.RowOf(r) != i {
			t.Fatalf("col group member %d wrong: %d", i, r)
		}
	}
	if _, err := NewMesh(0, 4); err == nil {
		t.Fatal("expected error for zero mesh dimension")
	}
}

func TestGroupRingOrder(t *testing.T) {
	g := Group{Ranks: []int{5, 9, 2}, Me: 1}
	if g.Next(2) != 0 || g.Prev(0) != 2 {
		t.Fatal("ring wraparound broken")
	}
	if g.World(1) != 9 {
		t.Fatal("World translation broken")
	}
}

func TestPanicPropagation(t *testing.T) {
	w := newTestWorld(t, 3)
	_, err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
		c.Barrier() // other ranks wait here; poison must release them
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected propagated panic, got %v", err)
	}
}

func TestWorldReusableAfterRun(t *testing.T) {
	w := newTestWorld(t, 4)
	for trial := 0; trial < 3; trial++ {
		comms, err := w.Run(func(c *Comm) {
			c.Barrier()
			if c.AllReduceSum(1) != 4 {
				panic("bad sum")
			}
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(comms) != 4 {
			t.Fatalf("trial %d: %d comms", trial, len(comms))
		}
	}
}

func TestLinkLoads(t *testing.T) {
	w := newTestWorld(t, 4)
	comms, err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(3, 1, []uint32{1, 2, 3})
		}
		if c.Rank() == 3 {
			c.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	maxB, totalB, links := LinkLoads(comms)
	if links == 0 || maxB == 0 {
		t.Fatal("no link loads recorded")
	}
	// One message of header+12 bytes over `hops` links.
	hops := w.Mapping().Hops(0, 3)
	wantBytes := uint64(messageHeaderBytes + 12)
	if maxB != wantBytes {
		t.Errorf("max link bytes %d, want %d", maxB, wantBytes)
	}
	if totalB != wantBytes*uint64(hops) {
		t.Errorf("total link bytes %d, want %d", totalB, wantBytes*uint64(hops))
	}
	if links != hops {
		t.Errorf("links used %d, want %d", links, hops)
	}
}
