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

	"repro/internal/checkpoint"
	"repro/internal/frontier"
	"repro/internal/partition"
	"repro/internal/search"
)

// fingerprint is the run's workload identity: the layout and shared
// options (search.Common.Fingerprint) plus every BFS option that must
// match between the checkpointing and the restoring run — anything that
// changes the schedule, the wire traffic, or the charges.
func (o *Options) fingerprint(l partition.View) uint64 {
	var bits uint64
	if o.HasTarget {
		bits |= 1
	}
	if o.SentCache {
		bits |= 2
	}
	return o.Fingerprint(l,
		uint64(o.Source), uint64(o.Target), bits,
		uint64(o.Expand), uint64(o.Fold), uint64(o.Direction), uint64(o.MaxLevels))
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
// constructor, so sizes and representations match the engine exactly;
// the levels decode into L, as newSide takes it.
func decodeSide(dec *checkpoint.Dec, e *engine2D, opts Options, L []int32) *sideState {
	s := e.newSide(opts.Source, L)
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
