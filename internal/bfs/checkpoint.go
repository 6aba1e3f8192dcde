package bfs

// Checkpoint/restart for the uni-directional drivers: at the top of
// level Checkpoint.At each rank serializes its complete search state —
// the side (levels, frontier, sent-cache), the direction heuristic's
// running degree ledger, the per-level statistics, the engine's cached
// degree exchange, and the transport state (comm.State) — into one
// opaque blob deposited in the checkpoint.Plan. A restoring run loads
// the blobs, skips the charged initialization (its cost lives in the
// restored ledgers), and continues to a Result byte-identical to the
// uninterrupted run. Frontier sets travel through the existing wire
// codec, so a snapshot stores like any other payload.

import (
	"fmt"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/frontier"
)

// ckptVersion guards the blob layout.
const ckptVersion = 1

// optsFingerprint folds every option that must match between the
// checkpointing and the restoring run — anything that changes the
// schedule, the wire traffic, or the charges.
func optsFingerprint(o Options) uint64 {
	var bits uint64
	if o.HasTarget {
		bits |= 1
	}
	if o.Async {
		bits |= 2
	}
	if o.SentCache {
		bits |= 4
	}
	if o.P2PTermination {
		bits |= 8
	}
	return checkpoint.Fingerprint(
		uint64(o.Source), uint64(o.Target), bits,
		uint64(o.Expand), uint64(o.Fold), uint64(o.Direction),
		math.Float64bits(o.doAlpha()),
		uint64(o.Wire), uint64(o.ChunkWords),
		math.Float64bits(o.FrontierOccupancy),
		uint64(o.MaxLevels),
		// Cores scales the pool-loop charges, so it is workload identity;
		// 0 and 1 are the same single-core baseline. Workers is real
		// wall-clock parallelism only and deliberately excluded.
		uint64(max(1, o.Cores)),
	)
}

// runFingerprint is the full workload identity: engine partitioning,
// options, and world size.
func runFingerprint(e stepper, opts Options, p int) uint64 {
	return checkpoint.Fingerprint(e.fingerprint(), optsFingerprint(opts), uint64(p))
}

// validateRobustness rejects checkpoint/restore combinations a driver
// does not support. uniDriver is false for the bi-directional and
// multi-source drivers, which have no snapshot support.
func validateRobustness(opts Options, uniDriver bool) error {
	cp := opts.Checkpoint.Enabled()
	rs := opts.Restore != nil
	if !cp && !rs {
		return nil
	}
	if !uniDriver {
		return fmt.Errorf("bfs: checkpoint/restore is only supported by the uni-directional drivers")
	}
	if cp && rs {
		return fmt.Errorf("bfs: cannot checkpoint and restore in the same run")
	}
	if opts.Trace != nil {
		return fmt.Errorf("bfs: checkpoint/restore cannot be combined with tracing (a partial run's spans do not tile the clock)")
	}
	return nil
}

// saveUniBlob serializes one rank's uni-directional driver state.
func saveUniBlob(c *comm.Comm, e stepper, s *sideState, recs []rankLevel, unlabeledDeg uint64, redTag int) []uint32 {
	enc := &checkpoint.Enc{}
	enc.U32(ckptVersion)
	enc.U64(unlabeledDeg)
	enc.Int(redTag)
	encodeSide(enc, s)
	e.saveExtra(enc)
	enc.Int(len(recs))
	for i := range recs {
		encodeRankLevel(enc, &recs[i])
	}
	c.CaptureState().Encode(enc)
	return enc.Payload()
}

// restoreUniBlob is saveUniBlob's inverse: it rebuilds the side and
// statistics and loads the transport state onto the (fresh) rank.
func restoreUniBlob(c *comm.Comm, e stepper, opts Options, blob []uint32) (*sideState, []rankLevel, uint64, int) {
	dec := checkpoint.NewDec(blob)
	if v := dec.U32(); v != ckptVersion {
		panic(fmt.Sprintf("bfs: checkpoint blob version %d, want %d", v, ckptVersion))
	}
	unlabeledDeg := dec.U64()
	redTag := dec.Int()
	s := decodeSide(dec, e, opts)
	e.restoreExtra(dec)
	n := dec.Int()
	recs := make([]rankLevel, n)
	for i := range recs {
		recs[i] = decodeRankLevel(dec)
	}
	c.RestoreState(comm.DecodeState(dec))
	dec.Done()
	return s, recs, unlabeledDeg, redTag
}

// encodeSide serializes a sideState. The frontier goes through the
// wire codec (WireAuto: vertex list or bitmap, whichever is fewer
// words); members are re-Added in ascending order on restore, which
// reproduces the adaptive representation deterministically.
func encodeSide(enc *checkpoint.Enc, s *sideState) {
	enc.U32(uint32(s.level))
	enc.Int(len(s.L))
	for _, v := range s.L {
		enc.U32(uint32(v))
	}
	lo, n := s.F.Universe()
	enc.Words(frontier.EncodeSet(s.F.Vertices(), lo, n, frontier.WireAuto))
	enc.Bool(s.sent != nil)
	if s.sent != nil {
		words := s.sent.Words()
		enc.Int(len(words))
		for _, w := range words {
			enc.U64(w)
		}
	}
}

// decodeSide rebuilds a sideState through the engine's own
// constructor, so sizes and representations match the engine exactly.
func decodeSide(dec *checkpoint.Dec, e stepper, opts Options) *sideState {
	s := e.newSide(opts.Source)
	s.level = int32(dec.U32())
	if n := dec.Int(); n != len(s.L) {
		panic(fmt.Sprintf("bfs: checkpoint has %d owned levels, engine has %d", n, len(s.L)))
	}
	for i := range s.L {
		s.L[i] = int32(dec.U32())
	}
	s.F.Reset() // newSide seeded the source
	for _, v := range frontier.Decode(dec.Words()) {
		s.F.Add(v)
	}
	if dec.Bool() {
		if s.sent == nil {
			panic("bfs: checkpoint has a sent-cache, engine does not")
		}
		words := s.sent.Words()
		if n := dec.Int(); n != len(words) {
			panic(fmt.Sprintf("bfs: checkpoint sent-cache has %d words, engine has %d", n, len(words)))
		}
		for i := range words {
			words[i] = dec.U64()
		}
	} else if s.sent != nil {
		panic("bfs: checkpoint has no sent-cache, engine expects one")
	}
	return s
}

func encodeRankLevel(enc *checkpoint.Enc, r *rankLevel) {
	enc.Int(int(r.dir))
	enc.Int(r.frontier)
	enc.Int(r.expandWords)
	enc.Int(r.foldWords)
	enc.Int(r.dups)
	enc.Int(r.marked)
	enc.Int(r.edges)
	encodeHist(enc, r.containers)
	enc.F64(r.execS)
	enc.F64(r.commS)
	enc.F64(r.overlapS)
}

func decodeRankLevel(dec *checkpoint.Dec) rankLevel {
	var r rankLevel
	r.dir = Direction(dec.Int())
	r.frontier = dec.Int()
	r.expandWords = dec.Int()
	r.foldWords = dec.Int()
	r.dups = dec.Int()
	r.marked = dec.Int()
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

// engine fingerprints and extra-state hooks.

func (e *engine1D) fingerprint() uint64 {
	l := e.st.Layout
	return checkpoint.Fingerprint(uint64(l.N), 1, uint64(l.P))
}

// saveExtra persists the 1D degree-sum cache — it is computed without
// charges, but restoring it keeps the restored run's reductions
// byte-identical without rescanning — and the hash probes so far, so the
// restored Result's HashProbes matches the uninterrupted run.
func (e *engine1D) saveExtra(enc *checkpoint.Enc) {
	enc.Bool(e.degComputed)
	enc.U64(e.degTotal)
	enc.U64(e.probes)
}

func (e *engine1D) restoreExtra(dec *checkpoint.Dec) {
	e.degComputed = dec.Bool()
	e.degTotal = dec.U64()
	e.probes = dec.U64()
}

func (e *engine2D) fingerprint() uint64 {
	l := e.st.Layout
	return checkpoint.Fingerprint(uint64(l.N), uint64(l.R), uint64(l.C))
}

// saveExtra persists the 2D degree-exchange result: computing it
// charges an AllToAll, which already happened in the checkpointing run
// — a restored run must reuse the cache, not re-pay the exchange.
func (e *engine2D) saveExtra(enc *checkpoint.Enc) {
	enc.Bool(e.deg != nil)
	if e.deg != nil {
		enc.Words(e.deg)
	}
	enc.U64(e.probes)
}

func (e *engine2D) restoreExtra(dec *checkpoint.Dec) {
	if dec.Bool() {
		e.deg = dec.Words()
	}
	e.probes = dec.U64()
}
