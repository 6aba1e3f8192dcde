package comm

import (
	"fmt"

	"repro/internal/trace"
)

// Nonblocking point-to-point operations, modeled on BlueGene/L's
// co-processor mode: a posted transfer is handed to the communication
// coprocessor, which runs the send/receive software path and the wire
// transfer concurrently with whatever the main core does next. The
// main core pays nothing at post time; at Wait it pays only the part of
// the transfer that has not yet completed. The transfer's full cost —
// overheads and wire time — is still charged to the communication
// ledger (it happened, just concurrently), and the portion that
// progressed while the main core was busy is audited in OverlapTime, so
// for every rank, at all times,
//
//	Clock() == CompTime() + CommTime() - OverlapTime()
//
// and OverlapTime() <= CommTime() by construction.
//
// The blocking Send/Recv pair keeps the paper-faithful single-core
// model (overheads serialize into the clock) and is bit-identical to
// the seed behavior; the engines' synchronous schedules use only those,
// so the phase-synchronous baseline is unchanged.
//
// Requests on the same (source, tag) stream must be waited in posting
// order — the mailboxes are FIFO, exactly like eager MPI.

// Request is a handle to a posted nonblocking operation. It is a plain
// value: posting one allocates nothing, and a collective that posts a
// batch keeps them in a slice borrowed from Comm.Requests.
type Request struct {
	c     *Comm
	src   int
	tag   int
	chunk int     // maxWords of the matching send; <= 0 unchunked
	ref   float64 // progress floor: post clock, then each chunk's ready time
	done  bool
	data  []uint32
}

// Completed returns an already-complete request whose Wait returns data:
// a blocking receive in the form of a posted one.
func Completed(data []uint32) Request { return Request{done: true, data: data} }

// Isend posts a send and returns an immediately-complete request. The
// coprocessor runs the send path: the message departs one SendOverhead
// after the coprocessor frees up, the overhead is charged to the
// communication ledger as overlapped work, and the main core's clock
// does not move.
func (c *Comm) Isend(dst, tag int, data []uint32) Request {
	c.sendOffloaded(dst, tag, data)
	return Request{c: c, done: true}
}

// IsendChunked is Isend under the fixed-length buffer discipline of
// SendChunked; the receiver must use IrecvChunked with the same
// maxWords. As with SendChunked, a nil data slice means an empty
// logical message.
func (c *Comm) IsendChunked(dst, tag int, data []uint32, maxWords int) Request {
	if data == nil {
		data = emptyPayload
	}
	if maxWords <= 0 {
		c.sendOffloaded(dst, tag, data)
		return Request{c: c, done: true}
	}
	sendChunks(func(piece []uint32) { c.sendOffloaded(dst, tag, piece) }, data, maxWords)
	return Request{c: c, done: true}
}

// sendOffloaded queues one message through the coprocessor: departures
// serialize one SendOverhead apart (the coprocessor is a single
// engine), the overhead lands in the communication ledger as overlap,
// and the clock is untouched.
func (c *Comm) sendOffloaded(dst, tag int, data []uint32) {
	c.validateSend(dst, tag, data)
	oS := c.world.model.SendOverhead
	start := c.clock
	if c.copSendFree > start {
		start = c.copSendFree
	}
	departure := start + oS
	c.copSendFree = departure
	c.commTime += oS
	c.overlapTime += oS
	c.tr.Cost("isend", trace.KindOverlap, start, departure)
	c.post(dst, tag, data, departure)
}

// Irecv posts a receive for the next message from src with the given
// tag. Nothing is charged at post time; the clock of the post is
// recorded so Wait can tell how much of the transfer progressed under
// the activity in between.
func (c *Comm) Irecv(src, tag int) Request {
	if src == c.rank {
		panic(fmt.Sprintf("comm: rank %d posting a receive from itself (tag %d)", c.rank, tag))
	}
	return Request{c: c, src: src, tag: tag, ref: c.clock}
}

// IrecvChunked posts a receive for a logical message sent with
// SendChunked/IsendChunked using the same maxWords.
func (c *Comm) IrecvChunked(src, tag, maxWords int) Request {
	r := c.Irecv(src, tag)
	r.chunk = maxWords
	return r
}

// Wait blocks until the posted transfer completes and returns its
// payload (nil for send requests). The transfer's seconds that already
// elapsed on this rank's clock since the post are hidden: charged to
// the communication ledger and OverlapTime, but not re-serialized into
// the clock. Waiting twice returns the same payload.
func (r *Request) Wait() []uint32 {
	if r.done {
		return r.data
	}
	c := r.c
	if r.chunk <= 0 {
		r.data, r.ref = c.receiveOffloaded(r.src, r.tag, r.ref)
		r.done = true
		return r.data
	}
	r.data = recvChunks(func() []uint32 {
		piece, ready := c.receiveOffloaded(r.src, r.tag, r.ref)
		r.ref = ready
		return piece
	}, r.chunk)
	r.done = true
	return r.data
}

// receiveOffloaded pops the next message from src, checks its tag, and
// runs the coprocessor-completion accounting against ref — the
// simulated time the transfer was posted (or the previous chunk's
// completion, for chunked streams). The message is ready one
// RecvOverhead after it arrives (the coprocessor runs the receive
// path); transfer seconds in [max(ref, departure), ready] that this
// rank's clock already covers progressed under concurrent activity and
// are charged to commTime and overlapTime without advancing the clock.
// The uncovered remainder is an honest wait. It returns the payload
// and the completion time.
func (c *Comm) receiveOffloaded(src, tag int, ref float64) ([]uint32, float64) {
	msg, transit := c.takeMessage(src, tag)
	var data []uint32
	var ready float64
	if msg.dropped {
		// A lost transfer forfeits its overlap window: the coprocessor
		// cannot hide a copy that never arrived, so the whole recovery
		// serializes into the clock.
		data, ready = c.recover(src, msg, transit, true)
	} else {
		arrival := msg.departure + transit
		if ref > arrival {
			// The coprocessor was still completing the previous chunk.
			arrival = ref
		}
		ready = arrival + c.world.model.RecvOverhead
		start := ref
		if msg.departure > start {
			start = msg.departure // the transfer only progresses once posted
		}
		hidden := ready
		if c.clock < hidden {
			hidden = c.clock
		}
		hidden -= start
		if hidden < 0 {
			hidden = 0
		}
		if hidden > 0 {
			c.tr.Cost("irecv", trace.KindOverlap, start, start+hidden)
		}
		if ready > c.clock {
			c.tr.Cost("wait", trace.KindComm, c.clock, ready)
			c.commTime += ready - c.clock
			c.clock = ready
		}
		c.commTime += hidden
		c.overlapTime += hidden
		data = msg.data
		if !verifyFrame(msg) {
			// The copy in hand is garbage; the NACK retransmission
			// serializes like any other post-arrival repair.
			data, ready = c.recover(src, msg, transit, false)
		}
	}
	if msg.dupTrail {
		c.discardDup(src, transit)
		if c.clock > ready {
			ready = c.clock // the coprocessor also chewed the duplicate
		}
	}
	return data, ready
}

// takeMessage pops the next frame from src (see nextFrame) and
// tag-checks it, returning it with its modeled wire transit time.
func (c *Comm) takeMessage(src, tag int) (message, float64) {
	if src == c.rank {
		panic(fmt.Sprintf("comm: rank %d receiving from itself (tag %d)", c.rank, tag))
	}
	msg := c.nextFrame(src)
	if msg.tag != tag {
		panic(fmt.Sprintf("comm: rank %d expected tag %d from %d, got %d", c.rank, tag, src, msg.tag))
	}
	return msg, c.world.model.Transit(c.world.mapping.Hops(src, c.rank), frameBytes(msg.data))
}
