package sssp

// Checkpoint/restart for Δ-stepping: at the first bucket boundary with
// at least Checkpoint.At completed epochs, each rank serializes its
// complete search state — tentative distances, the live bucket array
// (each bucket travels through the frontier wire codec), Δ, the
// per-epoch statistics, and the transport state (comm.State) — into
// one opaque blob deposited in the checkpoint.Plan. A restoring run
// loads the blobs, skips the charged Δ-heuristic reductions, and
// continues to a Result byte-identical to the uninterrupted run.

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/frontier"
)

// ckptVersion guards the blob layout.
const ckptVersion = 1

// optsFingerprint folds every option that must match between the
// checkpointing and the restoring run.
func optsFingerprint(o Options) uint64 {
	var bits uint64
	if o.Async {
		bits |= 1
	}
	return checkpoint.Fingerprint(
		uint64(o.Source), uint64(o.Delta), bits,
		uint64(o.Wire), uint64(o.ChunkWords),
		math.Float64bits(o.FrontierOccupancy),
		// Cores scales the pool-loop charges, so it is workload identity;
		// 0 and 1 are the same single-core baseline. Workers is real
		// wall-clock parallelism only and deliberately excluded.
		uint64(max(1, o.Cores)),
	)
}

// runFingerprint is the full workload identity: engine partitioning,
// options, and world size.
func runFingerprint(e engine, opts Options, p int) uint64 {
	return checkpoint.Fingerprint(e.fingerprint(), optsFingerprint(opts), uint64(p))
}

// validateRobustness rejects checkpoint/restore combinations the
// driver does not support.
func validateRobustness(opts Options) error {
	cp := opts.Checkpoint.Enabled()
	rs := opts.Restore != nil
	if !cp && !rs {
		return nil
	}
	if cp && rs {
		return fmt.Errorf("sssp: cannot checkpoint and restore in the same run")
	}
	if opts.Trace != nil {
		return fmt.Errorf("sssp: checkpoint/restore cannot be combined with tracing (a partial run's spans do not tile the clock)")
	}
	return nil
}

// saveEpochBlob serializes one rank's Δ-stepping state at a bucket
// boundary.
func saveEpochBlob(c *comm.Comm, st *rankState, recs []epochRec, allLight bool, tagSeq int) []uint32 {
	enc := &checkpoint.Enc{}
	enc.U32(ckptVersion)
	enc.U32(st.delta)
	enc.Bool(allLight)
	enc.Int(tagSeq)
	enc.Words(st.D)
	idxs := make([]uint32, 0, len(st.buckets))
	for idx := range st.buckets {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	enc.Int(len(idxs))
	for _, idx := range idxs {
		enc.U32(idx)
		enc.Words(frontier.EncodeSet(st.buckets[idx].Vertices(), st.lo, st.n, frontier.WireAuto))
	}
	enc.Int(len(recs))
	for i := range recs {
		encodeEpochRec(enc, &recs[i])
	}
	c.CaptureState().Encode(enc)
	return enc.Payload()
}

// restoreEpochBlob is saveEpochBlob's inverse: it rebuilds the
// distances, buckets, and statistics and loads the transport state
// onto the (fresh) rank. st must carry lo/n/opts already.
func restoreEpochBlob(c *comm.Comm, st *rankState, blob []uint32) (recs []epochRec, allLight bool, tagSeq int) {
	dec := checkpoint.NewDec(blob)
	if v := dec.U32(); v != ckptVersion {
		panic(fmt.Sprintf("sssp: checkpoint blob version %d, want %d", v, ckptVersion))
	}
	st.delta = dec.U32()
	allLight = dec.Bool()
	tagSeq = dec.Int()
	d := dec.Words()
	if len(d) != st.n {
		panic(fmt.Sprintf("sssp: checkpoint has %d owned distances, engine has %d", len(d), st.n))
	}
	copy(st.D, d)
	nb := dec.Int()
	for i := 0; i < nb; i++ {
		idx := dec.U32()
		f := st.opts.NewFrontier(st.lo, st.n)
		for _, v := range frontier.Decode(dec.Words()) {
			f.Add(v)
		}
		st.buckets[idx] = f
	}
	n := dec.Int()
	recs = make([]epochRec, n)
	for i := range recs {
		recs[i] = decodeEpochRec(dec)
	}
	c.RestoreState(comm.DecodeState(dec))
	dec.Done()
	return recs, allLight, tagSeq
}

func encodeEpochRec(enc *checkpoint.Enc, r *epochRec) {
	enc.U32(r.bucket)
	enc.Int(int(r.phase))
	enc.Int(r.active)
	enc.Int(r.expandWords)
	enc.Int(r.foldWords)
	enc.Int(r.relax)
	enc.Int(r.resettles)
	enc.Int(r.edges)
	encodeHist(enc, r.containers)
	enc.F64(r.execS)
	enc.F64(r.commS)
	enc.F64(r.overlapS)
}

func decodeEpochRec(dec *checkpoint.Dec) epochRec {
	var r epochRec
	r.bucket = dec.U32()
	r.phase = Phase(dec.Int())
	r.active = dec.Int()
	r.expandWords = dec.Int()
	r.foldWords = dec.Int()
	r.relax = dec.Int()
	r.resettles = dec.Int()
	r.edges = dec.Int()
	r.containers = decodeHist(dec)
	r.execS = dec.F64()
	r.commS = dec.F64()
	r.overlapS = dec.F64()
	return r
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

// engine fingerprints.

func (e *engine1D) fingerprint() uint64 {
	l := e.st.Layout
	return checkpoint.Fingerprint(uint64(l.N), 1, uint64(l.P))
}

func (e *engine2D) fingerprint() uint64 {
	l := e.st.Layout
	return checkpoint.Fingerprint(uint64(l.N), uint64(l.R), uint64(l.C))
}
