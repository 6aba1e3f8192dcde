package comm

import (
	"repro/internal/torus"
	"repro/internal/trace"
)

// messageHeaderBytes models the per-message envelope (tag, length,
// source) so that zero-length payloads are still charged a wire cost.
const messageHeaderBytes = 16

// Comm is one rank's handle into the World. All methods must be called
// only from the goroutine running that rank's SPMD body.
type Comm struct {
	world *World
	rank  int

	clock    float64 // simulated time on this rank
	commTime float64 // time attributed to communication
	compTime float64 // time attributed to computation
	// overlapTime is the subset of commTime that progressed concurrently
	// with other activity on this rank — transfers posted through the
	// nonblocking operations, which the modeled communication
	// coprocessor progresses while the main core computes (or waits on
	// other transfers) — instead of serializing into the clock.
	// Invariant, maintained by every operation:
	// clock == compTime + commTime - overlapTime.
	overlapTime float64
	// copSendFree is when the modeled communication coprocessor finishes
	// its last posted send; offloaded departures serialize through it.
	copSendFree float64

	// tr records spans for every ledger charge when a trace.Recorder is
	// bound to the world; nil (all methods no-ops) otherwise. Recording
	// never charges the clock, so a traced run is clock-identical to an
	// untraced one.
	tr *trace.Tracer

	// peers is the traffic ledger, indexed by peer rank (see Peer).
	// post writes its send side and nextFrame its receive side, once per
	// logical message whatever the wire did to its copies; every traffic
	// number is derived from it when read (ledger.go).
	peers []Peer

	// Per-call scratch the collectives borrow (see scratch.go).
	reqs  lend[Request]
	lists lend[[]uint32]
	words lend[uint32]

	// The fault/recovery activity ledger, and the fault plan's
	// straggler factor for this rank (1 when not a straggler).
	faults FaultStats
	slow   float64

	// cores is the modeled per-node core count (BG/L co-processor mode
	// keeps one core on computation, virtual-node mode uses both).
	// Charges posted through ChargeItemsPar — the loops the engines
	// actually run on the worker pool — divide by it; everything else
	// stays serial. Always >= 1.
	cores int
}

// Rank returns this rank's id in [0, P).
func (c *Comm) Rank() int { return c.rank }

// Tracer returns this rank's span tracer — nil (and safe to call) when
// the world has no recorder bound. Collectives and engines use it for
// their structural spans.
func (c *Comm) Tracer() *trace.Tracer { return c.tr }

// Model returns the world's cost model, for explicit compute charges.
func (c *Comm) Model() torus.CostModel { return c.world.model }

// Size returns the world size P.
func (c *Comm) Size() int { return c.world.P }

// Clock returns the current simulated time on this rank.
func (c *Comm) Clock() float64 { return c.clock }

// CommTime returns accumulated simulated communication time.
func (c *Comm) CommTime() float64 { return c.commTime }

// CompTime returns accumulated simulated computation time.
func (c *Comm) CompTime() float64 { return c.compTime }

// OverlapTime returns the communication seconds hidden under concurrent
// activity by the nonblocking operations (see Request): always part of
// CommTime, never part of the clock. Zero on purely synchronous
// schedules.
func (c *Comm) OverlapTime() float64 { return c.overlapTime }

// Compute advances the simulated clock by d seconds of computation.
// On a straggler rank (see fault.Plan.Stragglers) the charge is scaled
// by the slowdown factor: the slow core takes proportionally longer
// for the same work.
func (c *Comm) Compute(d float64) {
	if c.slow > 1 {
		d *= c.slow
	}
	t0 := c.clock
	c.clock += d
	c.compTime += d
	c.tr.Cost("compute", trace.KindComp, t0, c.clock)
}

// ChargeItems advances the clock by n items at unit cost each; a
// convenience for the per-edge/per-hash/per-vertex charges.
func (c *Comm) ChargeItems(n int, unit float64) {
	if n > 0 {
		c.Compute(float64(n) * unit)
	}
}

// Cores returns the modeled per-node core count (>= 1).
func (c *Comm) Cores() int { return c.cores }

// SetCores sets the modeled per-node core count for ChargeItemsPar.
// Values below 1 are treated as 1, which is bit-identical to the
// single-core model (no division is applied).
func (c *Comm) SetCores(n int) {
	if n < 1 {
		n = 1
	}
	c.cores = n
}

// ChargeItemsPar is ChargeItems for loops that run on the per-rank
// worker pool: the charge divides by the modeled core count, so the
// simulated clock drops alongside the real wall-clock. Serial phases
// (marks, sorts, bucket scans) must keep using ChargeItems — the model
// only credits parallelism where the code actually has it.
func (c *Comm) ChargeItemsPar(n int, unit float64) {
	if n <= 0 {
		return
	}
	d := float64(n) * unit
	if c.cores > 1 {
		d /= float64(c.cores)
	}
	c.Compute(d)
}

// Send transmits data to rank dst with the given tag. The transport
// takes ownership of the payload: ranks share one address space and the
// simulated network does not copy, so the slice handed over here is the
// one the receiver gets — possibly much later, possibly forwarded on to
// other ranks — and from this call on nobody may write to it, sender or
// receiver. A sender that wants to reuse a buffer sends a copy, or
// writes what it sends into fresh memory (the union folds and the
// column expand write each set straight into the buffer they hand over).
// Every payload is framed with a sequence number and
// checksum carried in the modeled message envelope; a nil payload or an
// out-of-range dst is a descriptive panic (recovered by World.Run into
// an error).
func (c *Comm) Send(dst, tag int, data []uint32) {
	c.validateSend(dst, tag, data)
	t0 := c.clock
	c.clock += c.world.model.SendOverhead
	c.commTime += c.world.model.SendOverhead
	c.tr.Cost("send", trace.KindComm, t0, c.clock)
	c.post(dst, tag, data, c.clock)
}

// Recv receives the next message from rank src, which must carry the
// given tag (the SPMD protocols are deterministic; a tag mismatch means
// a protocol bug and panics). It returns the payload and advances the
// simulated clock past the message's arrival. This is the
// paper-faithful single-core receive: the wait and the receive overhead
// serialize into the clock, and nothing is ever hidden (contrast
// Irecv/Wait, which model the communication coprocessor).
//
// The frame's sequence number and checksum are verified on receipt;
// under a bound fault plan, lost or corrupted copies are recovered by
// the NACK-driven retransmission protocol (see recover) and duplicate
// copies are discarded, all charged to the simulated clock as
// communication time. The traffic ledger counts each logical message
// once, exactly as fault-free, so only the clock differs between a
// faulted and a clean run.
func (c *Comm) Recv(src, tag int) []uint32 {
	msg, transit := c.takeMessage(src, tag)
	data := msg.data
	if msg.dropped {
		data, _ = c.recover(src, msg, transit, true)
	} else {
		arrival := msg.departure + transit
		t0 := c.clock
		if arrival > c.clock {
			c.commTime += arrival - c.clock
			c.clock = arrival
		}
		c.clock += c.world.model.RecvOverhead
		c.commTime += c.world.model.RecvOverhead
		c.tr.Cost("recv", trace.KindComm, t0, c.clock)
		if !verifyFrame(msg) {
			data, _ = c.recover(src, msg, transit, false)
		}
	}
	if msg.dupTrail {
		c.discardDup(src, transit)
	}
	return data
}

// Barrier blocks until all ranks reach it and synchronizes all
// simulated clocks to the maximum plus a log2(P)-stage tree latency.
func (c *Comm) Barrier() {
	_, clk := c.world.barrier.enter(c.rank, c.clock, 0, opMax, c.world.model, c.world.P)
	c.tr.Cost("barrier", trace.KindComm, c.clock, clk)
	c.commTime += clk - c.clock
	c.clock = clk
}
