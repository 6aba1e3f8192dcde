package comm

import (
	"fmt"
	"hash/crc32"
	"math/bits"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/trace"
)

// Transport hardening: every payload is framed with a per-peer
// sequence number and a checksum riding in the modeled 16-byte message
// envelope (messageHeaderBytes), so framing adds no wire words and a
// fault-free run is charge-identical to the unframed transport. The
// receiver verifies both on every frame; with a fault.Plan bound to
// the World, the wire injects corruption, loss, duplication, and delay
// per the plan, and the receiver recovers via a NACK-driven bounded
// retransmission protocol whose every simulated second — detection
// timeout, exponential backoff, resent wire time — serializes into the
// clock as communication time ("retry" cost spans), keeping
// clock == comp + comm - overlap intact.

// castagnoli is the CRC-32C table; hash/crc32 runs it on the CPU's CRC
// instructions where it has them.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// shortFrame is the payload length, in words, below which checksum
// takes the word-mixing path: there the CRC's call and dispatch cost
// more than the bytes.
const shortFrame = 32

// checksum is the integrity check carried in the modeled message
// envelope: the CRC-32C of the payload's bytes, read in host order
// (sender and receiver share the host), or for a frame under shortFrame
// words shortSum. Either catches every single flipped bit, the
// corruption the fault plan injects.
func checksum(data []uint32) uint32 {
	if len(data) < shortFrame {
		return shortSum(data)
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), 4*len(data))
	return crc32.Checksum(b, castagnoli)
}

// shortSum mixes a short payload in four independent lanes, word i into
// lane i mod 4 (a tail short of four words into lane 0): each step
// x -> (x^w)·k is a bijection of the lane for a fixed word and of the
// word for a fixed lane, so a change confined to one word — any single
// flipped bit — changes that lane's final state and no other. The lanes
// fold through a bijection of each, and the length and a last bijective
// mix follow, so the sum changes too. The lanes run in parallel, so a
// 16-word frame is four multiplies deep.
func shortSum(data []uint32) uint32 {
	const k = 0x9e3779b1 // odd: multiplying by it is a bijection
	a, b, c, d := uint32(0x243f6a88), uint32(0x85a308d3), uint32(0x13198a2e), uint32(0x03707344)
	n := uint32(len(data))
	for ; len(data) >= 4; data = data[4:] {
		a, b, c, d = (a^data[0])*k, (b^data[1])*k, (c^data[2])*k, (d^data[3])*k
	}
	for _, w := range data {
		a = (a ^ w) * k
	}
	h := a ^ bits.RotateLeft32(b, 8) ^ bits.RotateLeft32(c, 16) ^ bits.RotateLeft32(d, 24) ^ n
	h ^= h >> 16
	h *= 0x85ebca6b
	return h ^ h>>13
}

// FaultStats aggregates one rank's transport-fault activity: what the
// wire injected on its incoming and outgoing messages and what the
// recovery protocol spent repairing it.
type FaultStats struct {
	// Injected counts per-kind fault injections on sent messages
	// (sender side): corrupt, drop, duplicate, delay, outage holds.
	InjCorrupt, InjDrop, InjDuplicate, InjDelay, InjOutage uint64
	// Retries counts retransmitted copies requested by this rank's
	// receives; ChecksumFails counts corrupt copies detected (first
	// sends and retransmissions); DupsDiscarded counts duplicate
	// copies the sequence counter rejected.
	Retries       uint64
	ChecksumFails uint64
	DupsDiscarded uint64
	// RetrySeconds is the simulated time the recovery protocol added
	// to this rank's clock (all charged as communication time).
	RetrySeconds float64
}

// Add accumulates other into s.
func (s *FaultStats) Add(other FaultStats) {
	s.InjCorrupt += other.InjCorrupt
	s.InjDrop += other.InjDrop
	s.InjDuplicate += other.InjDuplicate
	s.InjDelay += other.InjDelay
	s.InjOutage += other.InjOutage
	s.Retries += other.Retries
	s.ChecksumFails += other.ChecksumFails
	s.DupsDiscarded += other.DupsDiscarded
	s.RetrySeconds += other.RetrySeconds
}

// Injected returns total sender-side fault injections.
func (s FaultStats) Injected() uint64 {
	return s.InjCorrupt + s.InjDrop + s.InjDuplicate + s.InjDelay + s.InjOutage
}

// Zero reports whether no fault activity was recorded.
func (s FaultStats) Zero() bool { return s == FaultStats{} }

// FaultStats returns this rank's transport-fault counters.
func (c *Comm) FaultStats() FaultStats { return c.faults }

// MergeFaultStats sums the per-rank fault counters of a finished run.
func MergeFaultStats(comms []*Comm) FaultStats {
	var total FaultStats
	for _, c := range comms {
		total.Add(c.faults)
	}
	return total
}

// validateSend rejects the transport's sharp edges with a descriptive
// panic (recovered by World.Run into an error): self-sends, ranks
// outside the world, and nil payloads. A zero-length message is legal
// — pass an empty non-nil slice; nil means the caller forgot the
// payload, and framing a frame whose length the receiver cannot
// distinguish from "absent" would mask that bug.
func (c *Comm) validateSend(dst, tag int, data []uint32) {
	if dst == c.rank {
		panic(fmt.Sprintf("comm: rank %d sending to itself (tag %d)", c.rank, tag))
	}
	if dst < 0 || dst >= c.world.P {
		panic(fmt.Sprintf("comm: rank %d sending to out-of-range rank %d (world has %d ranks, tag %d)", c.rank, dst, c.world.P, tag))
	}
	if data == nil {
		panic(fmt.Sprintf("comm: rank %d sending nil payload to rank %d (tag %d); use an empty non-nil slice for zero-length messages", c.rank, dst, tag))
	}
}

// post frames data as the next message on the c.rank -> dst stream,
// counts it on the send side of the traffic ledger (the one place that
// does), and pushes it (and, for Duplicate faults, its extra copy)
// into dst's mailbox. departure is when the frame leaves this rank;
// the fault plan may corrupt the wire image, mark the frame dropped,
// or shift the departure for delays and link outages. The original
// payload always travels on the envelope so a retransmission can
// deliver it.
func (c *Comm) post(dst, tag int, data []uint32, departure float64) {
	p := &c.peers[dst]
	seq := uint32(p.Sent)
	p.Sent++
	p.SentBytes += uint64(frameBytes(data))
	m := message{tag: tag, data: data, departure: departure, seq: seq, sum: checksum(data)}
	plan := c.world.fault
	if plan != nil {
		if held := plan.HoldForOutages(c.rank, dst, m.departure); held > m.departure {
			m.departure = held
			c.faults.InjOutage++
		}
		kind, delay := plan.Decide(c.rank, dst, tag, seq, 0)
		switch kind {
		case fault.Corrupt:
			// Flip one payload bit (or, for zero-length payloads, an
			// envelope checksum bit) — length-preserving, so the wire
			// byte count and transit time match the clean copy.
			if len(data) == 0 {
				m.sum ^= 0x5a5a5a5a
			} else {
				m.data = garble(data, c.rank, dst, seq)
			}
			m.orig = data
			c.faults.InjCorrupt++
		case fault.Drop:
			// The envelope still reaches the mailbox — marked lost — so
			// the receiver's pop never blocks forever; the receiver
			// models the timeout and the retransmission carries orig.
			m.dropped = true
			m.orig = data
			c.faults.InjDrop++
		case fault.Duplicate:
			m.dupTrail = true
			c.faults.InjDuplicate++
		case fault.Delay:
			m.departure += delay
			c.faults.InjDelay++
		}
	}
	c.world.mail[dst][c.rank].push(m)
	if m.dupTrail {
		// The duplicate copy follows its original immediately on the
		// FIFO stream; the receiver discards it right after accepting
		// the original, so no copy outlives the logical message.
		dup := m
		dup.dupTrail = false
		dup.departure = m.departure + c.world.model.SendOverhead
		c.world.mail[dst][c.rank].push(dup)
	}
}

// garble returns a copy of data (len > 0) with one deterministically
// chosen bit flipped, so the receiver's checksum fails.
func garble(data []uint32, src, dst int, seq uint32) []uint32 {
	g := append([]uint32(nil), data...)
	h := (uint64(seq) + uint64(uint32(src))<<32 + uint64(uint32(dst))<<48 + 0x9e3779b97f4a7c15)
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h ^= h >> 27
	g[h%uint64(len(g))] ^= 1 << ((h >> 17) % 32)
	return g
}

// verifyFrame reports whether a frame's wire image matches its
// checksum.
func verifyFrame(m message) bool { return checksum(m.data) == m.sum }

// nextFrame pops the next frame on the src stream, verifies its
// sequence number against the receive side of the traffic ledger and
// counts it there (the one place that does). The per-peer counts make
// reordering and stream corruption a hard protocol error rather than
// silent misdelivery; duplicate copies never appear here because the
// receiver discards them eagerly (see discardDup), and retransmissions
// (see recover) repair a frame already counted.
func (c *Comm) nextFrame(src int) message {
	msg, ok := c.world.mail[c.rank][src].pop()
	if !ok {
		panic("comm: receive aborted because a peer rank panicked")
	}
	p := &c.peers[src]
	if msg.seq != uint32(p.Recv) {
		panic(fmt.Sprintf("comm: rank %d expected seq %d from rank %d, got %d (transport stream corrupted)", c.rank, uint32(p.Recv), src, msg.seq))
	}
	p.Recv++
	p.RecvBytes += uint64(frameBytes(msg.data))
	return msg
}

// discardDup pops and discards the duplicate copy trailing an accepted
// frame, charging its receive cost — wait to its arrival plus one
// receive overhead, serialized into the clock as communication time —
// and counting the discard.
func (c *Comm) discardDup(src int, transit float64) {
	dup, ok := c.world.mail[c.rank][src].pop()
	if !ok {
		panic("comm: receive aborted because a peer rank panicked")
	}
	t0 := c.clock
	arrival := dup.departure + transit
	if arrival > c.clock {
		c.clock = arrival
	}
	c.clock += c.world.model.RecvOverhead
	c.commTime += c.clock - t0
	c.tr.Cost("retry", trace.KindComm, t0, c.clock)
	c.faults.DupsDiscarded++
	c.faults.RetrySeconds += c.clock - t0
}

// recover runs the receiver side of the NACK-driven retransmission
// protocol for a frame whose first copy failed (checksum mismatch or
// drop). On entry the clock already covers the failed copy's receive
// (for corruption) or stands wherever the receiver detected the loss.
// Each round charges the NACK round trip plus exponential backoff,
// then models the retransmitted copy's wire transit and receive
// overhead; the fault plan may fault retransmissions too (attempt
// indices >= 1), but the CleanAttempt bound guarantees termination
// within the budget. Every second serializes into the clock as
// communication time under "retry" cost spans. It returns the true
// payload and the simulated time the frame was finally in hand.
func (c *Comm) recover(src int, m message, transit float64, firstDropped bool) ([]uint32, float64) {
	plan := c.world.fault
	if plan == nil {
		// A checksum mismatch without a fault plan is real memory
		// corruption — fail loudly.
		panic(fmt.Sprintf("comm: rank %d checksum mismatch on seq %d from rank %d with no fault plan bound", c.rank, m.seq, src))
	}
	data := m.orig
	if data == nil {
		data = m.data
	}
	t0 := c.clock
	if firstDropped {
		// Nothing arrived: the receiver's NACK timer anchors at the
		// time the copy should have been in hand.
		expect := m.departure + transit + c.world.model.RecvOverhead
		if expect > c.clock {
			c.clock = expect
		}
	} else {
		c.faults.ChecksumFails++
	}
	budget := plan.AttemptBudget()
	for attempt := 1; ; attempt++ {
		if attempt >= budget {
			panic(fmt.Sprintf("comm: rank %d exhausted the retry budget (%d attempts) receiving seq %d (tag %d) from rank %d", c.rank, budget, m.seq, m.tag, src))
		}
		// NACK round trip, then the sender's exponential backoff.
		c.clock += plan.Timeout() + plan.Backoff(attempt)
		c.faults.Retries++
		kind, delay := plan.Decide(src, c.rank, m.tag, m.seq, attempt)
		departure := plan.HoldForOutages(src, c.rank, c.clock)
		if departure > c.clock {
			c.faults.InjOutage++
		}
		if kind == fault.Delay {
			departure += delay
			c.faults.InjDelay++
		}
		arrival := departure + transit
		if kind == fault.Drop {
			// Lost again: the timer restarts from the expected arrival.
			c.clock = arrival + c.world.model.RecvOverhead
			continue
		}
		c.clock = arrival + c.world.model.RecvOverhead
		if kind == fault.Corrupt {
			c.faults.ChecksumFails++
			continue
		}
		// Clean copy in hand.
		ready := c.clock
		c.commTime += ready - t0
		c.tr.Cost("retry", trace.KindComm, t0, ready)
		c.faults.RetrySeconds += ready - t0
		return data, ready
	}
}
