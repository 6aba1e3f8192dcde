package comm

import (
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/torus"
)

// LinkLoad is one directed torus link's accumulated byte load — the
// exported, order-stable form of the per-rank link ledger, used by
// checkpoints (and anything else that needs the raw per-link loads
// rather than the LinkLoads summary).
type LinkLoad struct {
	From, To torus.Coord
	Bytes    uint64
}

// State is a complete snapshot of one rank's transport-side state: the
// simulated-clock ledger, the traffic counters, the frame sequence
// counters, the fault-activity counters, and the per-link byte loads.
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

	BytesSent uint64
	MsgsSent  uint64
	BytesRecv uint64
	MsgsRecv  uint64
	HopsRecv  uint64
	HopBytes  uint64

	SendSeq []uint32
	RecvSeq []uint32

	Faults FaultStats

	Links []LinkLoad
}

// CaptureState snapshots this rank's transport state. The link loads
// are sorted (by from-coordinate, then to-coordinate) so the snapshot
// is deterministic. It panics if a message is still waiting in one of
// this rank's mailboxes — a checkpoint taken mid-exchange would lose
// it.
func (c *Comm) CaptureState() State {
	for src, q := range c.world.mail[c.rank] {
		if _, ok := q.peek(); ok {
			panic(fmt.Sprintf("comm: rank %d capturing state with an unreceived message from rank %d", c.rank, src))
		}
	}
	s := State{
		Clock:       c.clock,
		CommTime:    c.commTime,
		CompTime:    c.compTime,
		OverlapTime: c.overlapTime,
		CopSendFree: c.copSendFree,
		BytesSent:   c.bytesSent,
		MsgsSent:    c.msgsSent,
		BytesRecv:   c.bytesRecv,
		MsgsRecv:    c.msgsRecv,
		HopsRecv:    c.hopsRecv,
		HopBytes:    c.hopBytes,
		Faults:      c.faults,
	}
	if c.sendSeq != nil {
		s.SendSeq = append([]uint32(nil), c.sendSeq...)
	}
	if c.recvSeq != nil {
		s.RecvSeq = append([]uint32(nil), c.recvSeq...)
	}
	for id, v := range c.linkLoad {
		if v != 0 {
			l := c.world.routes.Link(id)
			s.Links = append(s.Links, LinkLoad{From: l.From, To: l.To, Bytes: v})
		}
	}
	sort.Slice(s.Links, func(i, j int) bool {
		a, b := s.Links[i], s.Links[j]
		if a.From != b.From {
			return coordLess(a.From, b.From)
		}
		return coordLess(a.To, b.To)
	})
	return s
}

// RestoreState loads a captured snapshot onto this rank, replacing its
// entire transport state. The rank must be fresh (clock zero) — the
// engines restore immediately after World.Run hands them their Comm.
func (c *Comm) RestoreState(s State) {
	if c.clock != 0 || c.msgsSent != 0 || c.msgsRecv != 0 {
		panic(fmt.Sprintf("comm: rank %d restoring state onto a used rank", c.rank))
	}
	c.clock = s.Clock
	c.commTime = s.CommTime
	c.compTime = s.CompTime
	c.overlapTime = s.OverlapTime
	c.copSendFree = s.CopSendFree
	c.bytesSent = s.BytesSent
	c.msgsSent = s.MsgsSent
	c.bytesRecv = s.BytesRecv
	c.msgsRecv = s.MsgsRecv
	c.hopsRecv = s.HopsRecv
	c.hopBytes = s.HopBytes
	c.faults = s.Faults
	c.sendSeq = nil
	if s.SendSeq != nil {
		c.sendSeq = append([]uint32(nil), s.SendSeq...)
	}
	c.recvSeq = nil
	if s.RecvSeq != nil {
		c.recvSeq = append([]uint32(nil), s.RecvSeq...)
	}
	clear(c.linkLoad)
	for _, l := range s.Links {
		id, ok := c.world.routes.LinkID(l.From, l.To)
		if !ok {
			panic(fmt.Sprintf("comm: rank %d restoring a load on link %v→%v, which no route of this world uses", c.rank, l.From, l.To))
		}
		c.linkLoad[id] += l.Bytes
	}
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
	enc.U64(s.BytesSent)
	enc.U64(s.MsgsSent)
	enc.U64(s.BytesRecv)
	enc.U64(s.MsgsRecv)
	enc.U64(s.HopsRecv)
	enc.U64(s.HopBytes)
	enc.Bool(s.SendSeq != nil)
	if s.SendSeq != nil {
		enc.Words(s.SendSeq)
	}
	enc.Bool(s.RecvSeq != nil)
	if s.RecvSeq != nil {
		enc.Words(s.RecvSeq)
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
	enc.Int(len(s.Links))
	for _, l := range s.Links {
		enc.Int(l.From.X)
		enc.Int(l.From.Y)
		enc.Int(l.From.Z)
		enc.Int(l.To.X)
		enc.Int(l.To.Y)
		enc.Int(l.To.Z)
		enc.U64(l.Bytes)
	}
}

// DecodeState reads a State previously written by State.Encode.
func DecodeState(dec *checkpoint.Dec) State {
	var s State
	s.Clock = dec.F64()
	s.CommTime = dec.F64()
	s.CompTime = dec.F64()
	s.OverlapTime = dec.F64()
	s.CopSendFree = dec.F64()
	s.BytesSent = dec.U64()
	s.MsgsSent = dec.U64()
	s.BytesRecv = dec.U64()
	s.MsgsRecv = dec.U64()
	s.HopsRecv = dec.U64()
	s.HopBytes = dec.U64()
	if dec.Bool() {
		s.SendSeq = dec.Words()
	}
	if dec.Bool() {
		s.RecvSeq = dec.Words()
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
	n := dec.Int()
	s.Links = make([]LinkLoad, n)
	for i := range s.Links {
		s.Links[i].From.X = dec.Int()
		s.Links[i].From.Y = dec.Int()
		s.Links[i].From.Z = dec.Int()
		s.Links[i].To.X = dec.Int()
		s.Links[i].To.Y = dec.Int()
		s.Links[i].To.Z = dec.Int()
		s.Links[i].Bytes = dec.U64()
	}
	return s
}

func coordLess(a, b torus.Coord) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.Z < b.Z
}
