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

	"repro/internal/checkpoint"
	"repro/internal/frontier"
	"repro/internal/partition"
	"repro/internal/search"
)

// fingerprint is the run's workload identity: the layout and shared
// options (search.Common.Fingerprint) plus the source and Δ.
func (o *Options) fingerprint(l partition.View) uint64 {
	return o.Fingerprint(l, uint64(o.Source), uint64(o.Delta))
}

// encode serializes the search state at a bucket boundary, where the
// per-bucket scratch (settled, removed, active) is dead: Δ, the
// distances, and the live buckets in ascending index order.
func (st *rankState) encode(enc *checkpoint.Enc) {
	enc.U32(st.delta)
	enc.Words(st.D)
	idxs := st.sortedBuckets(nil)
	enc.Int(len(idxs))
	for _, idx := range idxs {
		enc.U32(idx)
		enc.Words(frontier.EncodeSet(st.buckets[idx].Vertices(), st.lo, st.n, frontier.WireAuto))
	}
}

// decode is encode's inverse; st must carry lo/n/opts already.
func (st *rankState) decode(dec *checkpoint.Dec) {
	st.delta = dec.U32()
	d := dec.Words()
	if len(d) != st.n {
		panic(fmt.Sprintf("sssp: checkpoint has %d owned distances, engine has %d", len(d), st.n))
	}
	copy(st.D, d)
	nb := dec.Int()
	for i := 0; i < nb; i++ {
		idx := dec.U32()
		f := frontier.New(st.lo, st.n)
		for _, v := range frontier.Decode(dec.Words()) {
			f.Add(v)
		}
		st.buckets[idx] = f
	}
}

func encodeEpochRec(enc *checkpoint.Enc, r *epochRec) {
	enc.U32(r.bucket)
	enc.Int(int(r.phase))
	enc.Int(r.active)
	enc.Int(r.relax)
	enc.Int(r.resettles)
	r.Step.Encode(enc)
}

func decodeEpochRec(dec *checkpoint.Dec) epochRec {
	r := epochRec{bucket: dec.U32(), phase: Phase(dec.Int()), active: dec.Int(), relax: dec.Int(), resettles: dec.Int()}
	r.Step = search.DecodeStep(dec)
	return r
}
