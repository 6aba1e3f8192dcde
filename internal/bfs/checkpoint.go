package bfs

// Checkpoint/restart for the uni-directional driver, one source's or a
// batch's: at the top of level (sweep) Checkpoint.At each rank
// serializes its complete search state — the side (levels, frontier,
// sent-cache, a batch's lane levels and masks), the direction heuristic's
// running degree ledger, the per-level statistics, the engine's cached
// degree exchange, and the transport state (comm.State) — into one
// opaque blob deposited in the checkpoint.Plan. A restoring run loads
// the blobs, skips the charged initialization (its cost lives in the
// restored ledgers), and continues to a Result byte-identical to the
// uninterrupted run. Frontier sets travel through the existing wire
// codec, so a snapshot stores like any other payload.

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/search"
)

// fingerprint is the run's workload identity: the layout and shared
// options (search.Common.Fingerprint) plus every BFS option that must
// match between the checkpointing and the restoring run — anything that
// changes the schedule, the wire traffic, or the charges — and a batch's
// size and sources (nil for one source).
func (o *Options) fingerprint(l partition.View, batch []graph.Vertex) uint64 {
	var bits uint64
	if o.HasTarget {
		bits |= 1
	}
	if o.SentCache {
		bits |= 2
	}
	words := []uint64{uint64(o.Source), uint64(o.Target), bits,
		uint64(o.Expand), uint64(o.Fold), uint64(o.Direction), uint64(o.MaxLevels)}
	if batch != nil {
		words = append(words, uint64(len(batch)))
		for _, src := range batch {
			words = append(words, uint64(src))
		}
	}
	return o.Fingerprint(l, words...)
}

// encodeSide serializes a sideState. The frontier goes through the
// wire codec (WireAuto: vertex list or bitmap, whichever is fewer
// words); members are re-Added in ascending order on restore, which
// reproduces the adaptive representation deterministically. The
// sent-cache and a batch's lane arrays follow when present — the
// fingerprint pins both.
func encodeSide(enc *checkpoint.Enc, s *sideState) {
	enc.U32(uint32(s.level))
	encodeWords(enc, s.L)
	lo, n := s.F.Universe()
	enc.Words(frontier.EncodeSet(s.F.Vertices(), lo, n, frontier.WireAuto))
	if s.sent != nil {
		encodeWords(enc, s.sent)
	}
	if b := s.batch; b != nil {
		for _, lv := range b.levels {
			encodeWords(enc, lv)
		}
		encodeWords(enc, b.reached)
		encodeWords(enc, b.fmask)
	}
}

// decodeSide fills s, the side the engine built for the restoring run
// (so sizes and representations match the engine exactly), with the
// state encodeSide wrote.
func decodeSide(dec *checkpoint.Dec, s *sideState) {
	s.level = int32(dec.U32())
	decodeWords(dec, s.L)
	s.F.Reset() // the constructor seeded the sources
	for _, v := range frontier.Decode(dec.Words()) {
		s.F.Add(v)
	}
	if s.sent != nil {
		decodeWords(dec, s.sent)
	}
	if b := s.batch; b != nil {
		for _, lv := range b.levels {
			decodeWords(dec, lv)
		}
		decodeWords(dec, b.reached)
		decodeWords(dec, b.fmask)
	}
}

// encodeWords appends an owned array, its length first.
func encodeWords[T int32 | uint64](enc *checkpoint.Enc, xs []T) {
	enc.Int(len(xs))
	for _, x := range xs {
		enc.U64(uint64(x))
	}
}

// decodeWords reads encodeWords' array into xs, whose length it must
// have.
func decodeWords[T int32 | uint64](dec *checkpoint.Dec, xs []T) {
	if n := dec.Int(); n != len(xs) {
		panic(fmt.Sprintf("bfs: checkpoint has %d entries where the engine has %d", n, len(xs)))
	}
	for i := range xs {
		xs[i] = T(dec.U64())
	}
}

func encodeRankLevel(enc *checkpoint.Enc, r *rankLevel) {
	enc.Int(int(r.dir))
	enc.Int(r.frontier)
	enc.Int(r.dups)
	enc.Int(r.marked)
	r.Step.Encode(enc)
}

func decodeRankLevel(dec *checkpoint.Dec) rankLevel {
	r := rankLevel{dir: Direction(dec.Int()), frontier: dec.Int(), dups: dec.Int(), marked: dec.Int()}
	r.Step = search.DecodeStep(dec)
	return r
}

// saveExtra persists the engine-internal state whose absence would
// change a restored run: the degree-exchange result — computing it
// charges an AllToAll, which already happened in the checkpointing run,
// and a restored run must reuse the cache, not re-pay the exchange — and
// the hash probes so far, so the restored Result's HashProbes matches the
// uninterrupted run.
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
