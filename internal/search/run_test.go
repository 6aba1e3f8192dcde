package search

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/trace"
)

func testWorld(t *testing.T, p int) *comm.World {
	t.Helper()
	w, err := comm.NewWorld(comm.Config{P: p})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// wantBareWorld fails unless w carries neither a trace recorder nor a
// fault plan into its next run.
func wantBareWorld(t *testing.T, w *comm.World) {
	t.Helper()
	if w.Fault() != nil {
		t.Error("the fault plan is still installed on the World")
	}
	if _, err := w.Run(func(c *comm.Comm) {
		if c.Tracer() != nil {
			panic("the trace recorder is still installed on the World")
		}
	}); err != nil {
		t.Error(err)
	}
}

// TestRunHarness: Run hands back what the ranks returned, a rank's
// panic is the World's error, and however the run ends the trace
// recorder and fault plan it installed are gone from the World.
func TestRunHarness(t *testing.T) {
	w := testWorld(t, 4)
	o := Defaults()
	o.Trace, o.Fault = trace.NewRecorder(), &fault.Plan{}

	out, err := Run(w, &o, func(c *comm.Comm) (int, *Canceled) {
		if c.Tracer() == nil {
			panic("no tracer bound during the run")
		}
		c.Compute(float64(1 + c.Rank()))
		return 10 * c.Rank(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, v := range out.PerRank {
		if v != 10*rank {
			t.Errorf("PerRank[%d] = %d, want %d", rank, v, 10*rank)
		}
	}
	if out.Canceled != nil || out.Err() != nil {
		t.Errorf("a finished run reports cancellation %v / %v", out.Canceled, out.Err())
	}
	if got := out.Totals().SimTime; got != 4 {
		t.Errorf("Totals().SimTime = %g, want the slowest rank's 4", got)
	}
	wantBareWorld(t, w)

	_, err = Run(w, &o, func(c *comm.Comm) (int, *Canceled) {
		if c.Rank() == 2 {
			panic("rank 2 gave up")
		}
		return 0, nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2 gave up") {
		t.Errorf("a rank's panic came back as %v", err)
	}
	wantBareWorld(t, w)
}

// TestRunMergesCancellations: the ranks stop at the same boundary, and
// the Canceled whose hook actually fired carries the run's error.
func TestRunMergesCancellations(t *testing.T) {
	w := testWorld(t, 4)
	o := Defaults()
	cause := errors.New("budget spent")
	out, err := Run(w, &o, func(c *comm.Comm) (int, *Canceled) {
		cxl := &Canceled{Unit: "level", Done: 3}
		if c.Rank() == 2 {
			cxl.Cause = cause
		}
		return c.Rank(), cxl
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Canceled == nil || out.Canceled.Cause != cause || out.Canceled.Done != 3 {
		t.Fatalf("merged cancellation %+v, want rank 2's", out.Canceled)
	}
	if !errors.Is(out.Err(), cause) {
		t.Errorf("Err() = %v does not wrap the cause", out.Err())
	}
	if out.PerRank[3] != 3 {
		t.Error("the partial per-rank results were dropped")
	}
}

// TestPoll: a nil hook makes no reduction; a firing hook stops every
// rank, the Cause staying with the rank that saw it.
func TestPoll(t *testing.T) {
	w := testWorld(t, 3)
	o := Defaults()
	if _, err := w.Run(func(c *comm.Comm) {
		if o.Poll(func(bool) bool { panic("reduced without a hook") }, 0, "level", 0) != nil {
			panic("canceled without a hook")
		}
	}); err != nil {
		t.Fatal(err)
	}
	cause := errors.New("stop")
	cancels := make([]*Canceled, w.P)
	if _, err := w.Run(func(c *comm.Comm) {
		oc := o
		oc.Cancel = func(sim float64) error {
			if c.Rank() == 1 && sim >= 2 {
				return cause
			}
			return nil
		}
		for done := 0; ; done++ {
			if cancels[c.Rank()] = oc.Poll(c.AllReduceOr, float64(done), "epoch", done); cancels[c.Rank()] != nil {
				return
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	for rank, cxl := range cancels {
		if cxl.Done != 2 || cxl.Unit != "epoch" || (cxl.Cause != nil) != (rank == 1) {
			t.Errorf("rank %d: %+v", rank, cxl)
		}
	}
}

// TestStepTimer: a step's three ledger deltas obey the clock identity
// clock == comp + comm - overlap across a body that computes, sends and
// receives, and the container delta is the step's own.
func TestStepTimer(t *testing.T) {
	w := testWorld(t, 2)
	steps := make([]Step, w.P)
	comps := make([]float64, w.P)
	if _, err := w.Run(func(c *comm.Comm) {
		hist := frontier.ContainerHist{RawPayloads: 5}
		c.Compute(0.5) // before the step: must not be attributed to it
		other := 1 - c.Rank()
		c.Send(other, 1, make([]uint32, 100))
		c.Recv(other, 1)

		comp0 := c.CompTime()
		tm := BeginStep(c, &hist, "level", "level")
		c.Compute(0.25 * float64(1+c.Rank()))
		req := c.Isend(other, 2, make([]uint32, 4000))
		rcv := c.Irecv(other, 2)
		c.ChargeItems(1000, c.Model().VertexCost)
		rcv.Wait()
		req.Wait()
		hist.RawPayloads += 2
		hist.ListChunks += 7
		tm.End(&steps[c.Rank()])
		comps[c.Rank()] = c.CompTime() - comp0
	}); err != nil {
		t.Fatal(err)
	}
	for rank, s := range steps {
		if s.ExecS <= 0 || s.CommS <= 0 {
			t.Errorf("rank %d: empty ledger %+v", rank, s)
		}
		if got := comps[rank] + s.CommS - s.OverlapS; math.Abs(got-s.ExecS) > 1e-12 {
			t.Errorf("rank %d: comp %g + comm %g - overlap %g = %g, clock advanced %g",
				rank, comps[rank], s.CommS, s.OverlapS, got, s.ExecS)
		}
		if want := (frontier.ContainerHist{RawPayloads: 2, ListChunks: 7}); s.Containers != want {
			t.Errorf("rank %d: containers %+v, want %+v", rank, s.Containers, want)
		}
	}
}

// TestStepCodec: a record, and a run's records, survive Halt/Resume; a
// truncated blob, another blob version, another workload and another
// graph of the same size are refused.
func TestStepCodec(t *testing.T) {
	recs := []Step{
		{ExpandWords: 3, FoldWords: 1 << 30, Edges: 7, ExecS: 0.125, CommS: 1e-9, OverlapS: math.SmallestNonzeroFloat64,
			Containers: frontier.ContainerHist{RawPayloads: 1, DensePayloads: 2, HybridPayloads: 3, EmptyChunks: 4,
				ListChunks: 5, BitmapChunks: 6, RunChunks: 7, PackedChunks: 8}},
		{},
		{Edges: 9, ExecS: 2},
	}
	w := testWorld(t, 2)
	stores := func(seed int64) []*partition.Store2D {
		l, err := partition.NewLayout2D(64, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		st, err := partition.Build2D(l, graph.Params{N: 64, K: 4, Seed: seed}.VisitEdges)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	graph5, graph6 := stores(5), stores(6)
	halt := Defaults()
	halt.Checkpoint = checkpoint.NewPlan(0)
	if _, err := w.Run(func(c *comm.Comm) {
		c.Compute(float64(1 + c.Rank()))
		halt.Halt(c, graph5[c.Rank()], "fam", 42, func(enc *checkpoint.Enc) {
			enc.Int(c.Rank())
			EncodeRecs(enc, recs, func(enc *checkpoint.Enc, s *Step) { s.Encode(enc) })
		})
	}); err != nil {
		t.Fatal(err)
	}
	snap := halt.Checkpoint.Snapshot()

	resume := func(snap *checkpoint.Snapshot, fingerprint uint64, onto ...[]*partition.Store2D) error {
		st := graph5
		if onto != nil {
			st = onto[0]
		}
		o := Defaults()
		o.Restore = snap
		_, err := w.Run(func(c *comm.Comm) {
			var got []Step
			o.Resume(c, st[c.Rank()], "fam", fingerprint, func(dec *checkpoint.Dec) {
				if r := dec.Int(); r != c.Rank() {
					panic("another rank's blob")
				}
				got = DecodeRecs(dec, DecodeStep)
			})
			if len(got) != len(recs) {
				panic("record count changed")
			}
			for i := range got {
				if got[i] != recs[i] {
					panic("record changed in the round trip")
				}
			}
			if c.Clock() != float64(1+c.Rank()) {
				panic("transport state not restored")
			}
		})
		return err
	}
	if err := resume(snap, 42); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if err := resume(snap, 43); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("another workload's snapshot: %v", err)
	}
	if err := resume(snap, 42, graph6); err == nil || !strings.Contains(err.Error(), "another graph") {
		t.Errorf("a snapshot restored onto another graph: %v", err)
	}
	damaged := func(edit func(blob []uint32) []uint32) *checkpoint.Snapshot {
		s := *snap
		s.Blobs = append([][]uint32(nil), snap.Blobs...)
		s.Blobs[1] = edit(append([]uint32(nil), snap.Blobs[1]...))
		return &s
	}
	if err := resume(damaged(func(b []uint32) []uint32 { return b[:len(b)-1] }), 42); err == nil {
		t.Error("a truncated blob was accepted")
	}
	err := resume(damaged(func(b []uint32) []uint32 { b[0] = blobVersion - 1; return b }), 42)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("an older blob version: %v", err)
	}
}
