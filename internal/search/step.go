package search

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/frontier"
	"repro/internal/partition"
	"repro/internal/trace"
)

// Step is the part of a rank's superstep record (a BFS level, a
// multi-source sweep, a Δ-stepping epoch) every family keeps; the
// families embed it next to their own counters.
type Step struct {
	ExpandWords int // words received during the expand
	FoldWords   int // words received during the fold
	Edges       int // edge-list entries inspected
	// Containers is the wire codec's container choices this step.
	Containers frontier.ContainerHist
	// ExecS, CommS and OverlapS are the step's advance of the rank's
	// clock, communication and hidden-communication ledgers.
	ExecS, CommS, OverlapS float64
}

// StepTimer measures one superstep on one rank: BeginStep opens the
// step's trace span and snapshots the rank's three ledgers and the
// engine's running container histogram, End records the deltas and
// closes the span.
type StepTimer struct {
	c                    *comm.Comm
	hist                 *frontier.ContainerHist
	h0                   frontier.ContainerHist
	clock, comm, overlap float64
}

// BeginStep starts timing a superstep whose span is (cat, name, args).
func BeginStep(c *comm.Comm, hist *frontier.ContainerHist, cat, name string, args ...trace.Arg) StepTimer {
	c.Tracer().Begin(cat, name, args...)
	return StepTimer{c: c, hist: hist, h0: *hist, clock: c.Clock(), comm: c.CommTime(), overlap: c.OverlapTime()}
}

// End records the step's ledger deltas in s and closes its span with
// the family's args.
func (t StepTimer) End(s *Step, args ...trace.Arg) {
	s.Containers = t.hist.Sub(t.h0)
	s.ExecS = t.c.Clock() - t.clock
	s.CommS = t.c.CommTime() - t.comm
	s.OverlapS = t.c.OverlapTime() - t.overlap
	t.c.Tracer().End(args...)
}

// Encode appends the record to a checkpoint blob.
func (s *Step) Encode(enc *checkpoint.Enc) {
	enc.Int(s.ExpandWords)
	enc.Int(s.FoldWords)
	enc.Int(s.Edges)
	encodeHist(enc, s.Containers)
	enc.F64(s.ExecS)
	enc.F64(s.CommS)
	enc.F64(s.OverlapS)
}

// DecodeStep inverts Step.Encode.
func DecodeStep(dec *checkpoint.Dec) Step {
	s := Step{ExpandWords: dec.Int(), FoldWords: dec.Int(), Edges: dec.Int(), Containers: decodeHist(dec)}
	s.ExecS, s.CommS, s.OverlapS = dec.F64(), dec.F64(), dec.F64()
	return s
}

// EncodeRecs appends a run's per-step records, each written by one.
func EncodeRecs[R any](enc *checkpoint.Enc, recs []R, one func(*checkpoint.Enc, *R)) {
	enc.Int(len(recs))
	for i := range recs {
		one(enc, &recs[i])
	}
}

// DecodeRecs inverts EncodeRecs.
func DecodeRecs[R any](dec *checkpoint.Dec, one func(*checkpoint.Dec) R) []R {
	recs := make([]R, dec.Int())
	for i := range recs {
		recs[i] = one(dec)
	}
	return recs
}

func encodeHist(enc *checkpoint.Enc, h frontier.ContainerHist) {
	enc.U64(uint64(h.RawPayloads))
	enc.U64(uint64(h.DensePayloads))
	enc.U64(uint64(h.HybridPayloads))
	enc.U64(uint64(h.EmptyChunks))
	enc.U64(uint64(h.ListChunks))
	enc.U64(uint64(h.BitmapChunks))
	enc.U64(uint64(h.RunChunks))
	enc.U64(uint64(h.PackedChunks))
}

func decodeHist(dec *checkpoint.Dec) frontier.ContainerHist {
	return frontier.ContainerHist{
		RawPayloads:    int64(dec.U64()),
		DensePayloads:  int64(dec.U64()),
		HybridPayloads: int64(dec.U64()),
		EmptyChunks:    int64(dec.U64()),
		ListChunks:     int64(dec.U64()),
		BitmapChunks:   int64(dec.U64()),
		RunChunks:      int64(dec.U64()),
		PackedChunks:   int64(dec.U64()),
	}
}

// blobVersion guards the layout of a rank's checkpoint blob:
// [version, the family's state..., the transport state]. Version 3
// dropped the BFS driver's point-to-point reduction tag. Version 4 runs
// the conventional 1D partitioning on the 2D engine over a 1 x P mesh:
// the fingerprint (the View) is unchanged, but the engine's extra state
// is the 2D engine's, not the old 1D engine's. An older snapshot is
// refused, not misread.
const blobVersion = 4

// Halt deposits rank c's checkpoint blob into o.Checkpoint: state
// writes the family's search state, the transport state follows. fam
// and fingerprint identify the workload to a later Resume.
func (o *Common) Halt(c *comm.Comm, fam string, fingerprint uint64, state func(enc *checkpoint.Enc)) {
	enc := &checkpoint.Enc{}
	enc.U32(blobVersion)
	state(enc)
	c.CaptureState().Encode(enc)
	o.Checkpoint.Put(fam, o.Checkpoint.At, c.Size(), c.Rank(), fingerprint, enc.Payload())
}

// Resume loads rank c's blob of o.Restore: state reads back what Halt's
// state wrote, then the transport state is installed on the (fresh)
// rank. A snapshot of another workload, blob version or length panics;
// the engines resume inside World.Run, which turns that into the run's
// error.
func (o *Common) Resume(c *comm.Comm, fam string, fingerprint uint64, state func(dec *checkpoint.Dec)) {
	if err := o.Restore.Check(fam, c.Size(), fingerprint); err != nil {
		panic(err.Error())
	}
	dec := checkpoint.NewDec(o.Restore.Blobs[c.Rank()])
	if v := dec.U32(); v != blobVersion {
		panic(fmt.Sprintf("%s: checkpoint blob version %d, want %d", fam, v, blobVersion))
	}
	state(dec)
	c.RestoreState(comm.DecodeState(dec))
	dec.Done()
}

// CheckRobustness rejects the checkpoint/restore combinations no run
// supports, and any use of them by a driver without snapshot support
// (snapshots false: the bi-directional and multi-source drivers).
func (o *Common) CheckRobustness(fam string, snapshots bool) error {
	cp, rs := o.Checkpoint.Enabled(), o.Restore != nil
	switch {
	case !cp && !rs:
		return nil
	case !snapshots:
		return fmt.Errorf("%s: checkpoint/restore is only supported by the uni-directional drivers", fam)
	case cp && rs:
		return fmt.Errorf("%s: cannot checkpoint and restore in the same run", fam)
	case o.Trace != nil:
		return fmt.Errorf("%s: checkpoint/restore cannot be combined with tracing (a partial run's spans do not tile the clock)", fam)
	}
	return nil
}

// Fingerprint is a run's workload identity for checkpoint compatibility:
// the layout, every shared option that changes the schedule, the wire
// traffic or the charges, and the family's own identity words.
func (o *Common) Fingerprint(l partition.View, family ...uint64) uint64 {
	return checkpoint.Fingerprint(append(family,
		uint64(l.N), uint64(l.R), uint64(l.C), word(o.Async),
		uint64(o.Wire), uint64(o.ChunkWords),
		// Cores scales the pool-loop charges, so it is workload identity;
		// 0 and 1 are the same single-core baseline. Workers is real
		// wall-clock parallelism only and deliberately excluded.
		uint64(max(1, o.Cores)))...)
}

// word is a fingerprint's word for a flag.
func word(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
