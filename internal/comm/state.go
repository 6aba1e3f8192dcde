package comm

import (
	"fmt"
	"slices"

	"repro/internal/checkpoint"
)

// State is a complete snapshot of one rank's transport-side state: the
// simulated-clock ledger, the per-peer traffic ledger (which also holds
// the frame sequence counters) and the fault-activity counters.
// Capturing and later restoring it onto a fresh rank makes the
// continued run charge-identical to one that never stopped.
//
// A snapshot is only meaningful at a quiescent point — all posted
// messages received, no requests in flight — which the engines
// guarantee at level/epoch boundaries. In-flight mailbox contents are
// deliberately not part of the state.
type State struct {
	Clock       float64
	CommTime    float64
	CompTime    float64
	OverlapTime float64
	CopSendFree float64

	Peers []Peer // indexed by world rank

	Faults FaultStats
}

// CaptureState snapshots this rank's transport state. It panics if a
// message is still waiting in one of this rank's mailboxes — a
// checkpoint taken mid-exchange would lose it.
func (c *Comm) CaptureState() State {
	for src, q := range c.world.mail[c.rank] {
		if _, ok := q.peek(); ok {
			panic(fmt.Sprintf("comm: rank %d capturing state with an unreceived message from rank %d", c.rank, src))
		}
	}
	return State{
		Clock:       c.clock,
		CommTime:    c.commTime,
		CompTime:    c.compTime,
		OverlapTime: c.overlapTime,
		CopSendFree: c.copSendFree,
		Peers:       slices.Clone(c.peers),
		Faults:      c.faults,
	}
}

// RestoreState loads a captured snapshot onto this rank, replacing its
// entire transport state. The rank must be fresh (clock zero, nothing
// sent or received) — the engines restore immediately after World.Run
// hands them their Comm — and the snapshot must come from a world of
// the same size.
func (c *Comm) RestoreState(s State) {
	if len(s.Peers) != len(c.peers) {
		panic(fmt.Sprintf("comm: rank %d restoring a snapshot of a %d-rank world into a %d-rank world", c.rank, len(s.Peers), len(c.peers)))
	}
	if c.clock != 0 || c.MsgsSent() != 0 || c.MsgsRecv() != 0 {
		panic(fmt.Sprintf("comm: rank %d restoring state onto a used rank", c.rank))
	}
	c.clock = s.Clock
	c.commTime = s.CommTime
	c.compTime = s.CompTime
	c.overlapTime = s.OverlapTime
	c.copSendFree = s.CopSendFree
	copy(c.peers, s.Peers)
	c.faults = s.Faults
}

// Encode serializes the snapshot into a checkpoint blob; Decode is the
// exact inverse. Both search families' checkpoint layers embed the
// transport state through these, so the layout lives here.
func (s State) Encode(enc *checkpoint.Enc) {
	enc.F64(s.Clock)
	enc.F64(s.CommTime)
	enc.F64(s.CompTime)
	enc.F64(s.OverlapTime)
	enc.F64(s.CopSendFree)
	enc.Int(len(s.Peers))
	for _, p := range s.Peers {
		enc.U64(p.Sent)
		enc.U64(p.Recv)
		enc.U64(p.SentBytes)
		enc.U64(p.RecvBytes)
	}
	enc.U64(s.Faults.InjCorrupt)
	enc.U64(s.Faults.InjDrop)
	enc.U64(s.Faults.InjDuplicate)
	enc.U64(s.Faults.InjDelay)
	enc.U64(s.Faults.InjOutage)
	enc.U64(s.Faults.Retries)
	enc.U64(s.Faults.ChecksumFails)
	enc.U64(s.Faults.DupsDiscarded)
	enc.F64(s.Faults.RetrySeconds)
}

// DecodeState reads a State previously written by State.Encode.
func DecodeState(dec *checkpoint.Dec) State {
	var s State
	s.Clock = dec.F64()
	s.CommTime = dec.F64()
	s.CompTime = dec.F64()
	s.OverlapTime = dec.F64()
	s.CopSendFree = dec.F64()
	// Grown entry by entry, so a corrupt count fails on the blob's
	// length instead of allocating it.
	for n := dec.Int(); len(s.Peers) < n; {
		s.Peers = append(s.Peers, Peer{Sent: dec.U64(), Recv: dec.U64(), SentBytes: dec.U64(), RecvBytes: dec.U64()})
	}
	s.Faults.InjCorrupt = dec.U64()
	s.Faults.InjDrop = dec.U64()
	s.Faults.InjDuplicate = dec.U64()
	s.Faults.InjDelay = dec.U64()
	s.Faults.InjOutage = dec.U64()
	s.Faults.Retries = dec.U64()
	s.Faults.ChecksumFails = dec.U64()
	s.Faults.DupsDiscarded = dec.U64()
	s.Faults.RetrySeconds = dec.F64()
	return s
}
