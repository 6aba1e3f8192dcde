// Package comm provides the simulated SPMD message-passing runtime that
// stands in for MPI on BlueGene/L. A World runs P ranks as goroutines;
// each rank owns a Comm handle with FIFO point-to-point Send/Recv,
// barrier and reduction primitives, and a deterministic simulated clock
// driven by the torus cost model (torus.CostModel).
//
// Everything higher in the stack — all collectives of §3.2 and the BFS
// itself — is written against Comm using only point-to-point messages,
// exactly as the paper implements its collectives.
//
// Each rank keeps one traffic ledger: for every peer, the frames and
// bytes it sent there and received from there (Peer). The frame
// sequence numbers are those counts, and every transport number —
// message and byte totals, hop sums, per-link loads (LinkLoads) — is
// derived from the ledger when it is read, so a rank's whole traffic
// record, and its checkpoint, is one slice of P entries.
package comm

import (
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/torus"
	"repro/internal/trace"
)

// message is a point-to-point payload with its simulated departure time.
// seq and sum are the transport frame — a per-peer sequence number and
// payload checksum riding in the modeled 16-byte envelope
// (messageHeaderBytes), so framing adds no wire words. The remaining
// fields are wire-fault markers (see fault.go): orig retains the true
// payload when the wire image was corrupted or lost so a retransmission
// can deliver it, dropped marks a copy the wire lost in transit, and
// dupTrail marks a frame immediately followed by a duplicate copy on
// the FIFO stream.
type message struct {
	tag       int
	data      []uint32
	departure float64

	seq      uint32
	sum      uint32
	orig     []uint32
	dropped  bool
	dupTrail bool
}

// World is a set of P simulated ranks wired all-to-all with FIFO
// channels, placed on a torus by a Mapping, and timed by a CostModel.
type World struct {
	P       int
	mapping *torus.Mapping
	model   torus.CostModel

	// mail[dst][src] carries messages from src to dst in FIFO order.
	mail [][]*queue

	// Central structures for clock-synchronizing operations.
	barrier *clockBarrier

	// tracer, when non-nil, has one Tracer bound per rank at the next
	// Run and records every ledger charge as a span.
	tracer *trace.Recorder

	// fault, when non-nil, is the deterministic fault plan the wire
	// consults on every posted message (see fault.go).
	fault *fault.Plan

	mu       sync.Mutex
	panicked error
}

// Config configures a World.
type Config struct {
	P       int
	Mapping *torus.Mapping // optional; defaults to row-major on a fitted torus
	Model   torus.CostModel
}

// NewWorld creates a world of cfg.P ranks.
func NewWorld(cfg Config) (*World, error) {
	if cfg.P <= 0 {
		return nil, fmt.Errorf("comm: P must be positive, got %d", cfg.P)
	}
	if cfg.Model.Bandwidth == 0 {
		cfg.Model = torus.PresetBlueGeneL()
	}
	if cfg.Mapping == nil {
		m, err := torus.RowMajor(torus.FitTorus(cfg.P), cfg.P)
		if err != nil {
			return nil, err
		}
		cfg.Mapping = m
	}
	if len(cfg.Mapping.Coords) < cfg.P {
		return nil, fmt.Errorf("comm: mapping has %d coords for %d ranks", len(cfg.Mapping.Coords), cfg.P)
	}
	w := &World{
		P:       cfg.P,
		mapping: cfg.Mapping,
		model:   cfg.Model,
		mail:    make([][]*queue, cfg.P),
		barrier: newClockBarrier(),
	}
	for dst := 0; dst < cfg.P; dst++ {
		w.mail[dst] = make([]*queue, cfg.P)
		for src := 0; src < cfg.P; src++ {
			w.mail[dst][src] = newQueue()
		}
	}
	return w, nil
}

// Model returns the cost model the world charges.
func (w *World) Model() torus.CostModel { return w.model }

// Mapping returns the rank placement.
func (w *World) Mapping() *torus.Mapping { return w.mapping }

// SetTrace installs (nil removes) the span recorder the next Run binds
// its ranks to. A Recorder holds one run; engines install the
// configured recorder at entry and remove it when done.
func (w *World) SetTrace(r *trace.Recorder) { w.tracer = r }

// SetFault installs (nil removes) the deterministic fault plan the wire
// consults for every message posted during subsequent Runs. Engines
// install the configured plan at entry and remove it when done, like
// SetTrace.
func (w *World) SetFault(p *fault.Plan) { w.fault = p }

// Fault returns the currently installed fault plan (nil when the wire
// is clean).
func (w *World) Fault() *fault.Plan { return w.fault }

// Run executes body as an SPMD program: one goroutine per rank, each
// receiving its own Comm. It returns the per-rank Comms (for reading
// counters) after all ranks finish. A panic on any rank is recovered,
// recorded, and re-reported as an error after unblocking the others is
// no longer possible — so a panicking SPMD body is a programming error
// that fails fast with context.
func (w *World) Run(body func(c *Comm)) ([]*Comm, error) {
	comms := make([]*Comm, w.P)
	for r := range comms {
		comms[r] = &Comm{world: w, rank: r, slow: 1, cores: 1, peers: make([]Peer, w.P)}
		if w.fault != nil {
			comms[r].slow = w.fault.StragglerFactor(r)
		}
		if w.tracer != nil {
			c := comms[r]
			c.tr = w.tracer.Bind(r, func() float64 { return c.clock })
		}
	}
	var wg sync.WaitGroup
	wg.Add(w.P)
	for r := 0; r < w.P; r++ {
		go func(c *Comm) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					w.mu.Lock()
					if w.panicked == nil {
						w.panicked = fmt.Errorf("comm: rank %d panicked: %v", c.rank, rec)
					}
					w.mu.Unlock()
					// Unblock peers waiting in the barrier or in Recv
					// so the process fails with an error instead of a
					// deadlock.
					w.poisonAll()
				}
			}()
			body(c)
			c.tr.Finish(c.clock, c.compTime, c.commTime, c.overlapTime)
		}(comms[r])
	}
	wg.Wait()
	w.mu.Lock()
	err := w.panicked
	w.panicked = nil
	w.mu.Unlock()
	if err != nil {
		w.unpoisonAll()
	}
	return comms, err
}

func (w *World) poisonAll() {
	w.barrier.poison()
	for _, row := range w.mail {
		for _, q := range row {
			q.poison()
		}
	}
}

// unpoisonAll resets the poison state and drains stale messages so the
// world can be reused after a failed Run.
func (w *World) unpoisonAll() {
	w.barrier.unpoison()
	for _, row := range w.mail {
		for _, q := range row {
			q.unpoison()
		}
	}
}

// MaxClock returns the maximum simulated clock across comms — the
// simulated execution time of the SPMD program.
func MaxClock(comms []*Comm) float64 {
	max := 0.0
	for _, c := range comms {
		if c.clock > max {
			max = c.clock
		}
	}
	return max
}

// MaxCommTime returns the maximum per-rank accumulated communication
// time (the quantity the paper plots as "Comm. Time").
func MaxCommTime(comms []*Comm) float64 {
	max := 0.0
	for _, c := range comms {
		if c.commTime > max {
			max = c.commTime
		}
	}
	return max
}

// MaxOverlapTime returns the maximum per-rank communication time hidden
// under concurrent activity by nonblocking transfers — the seconds the
// asynchronous schedule kept off the critical path (the counterpart of
// MaxCommTime, which it never exceeds).
func MaxOverlapTime(comms []*Comm) float64 {
	max := 0.0
	for _, c := range comms {
		if c.overlapTime > max {
			max = c.overlapTime
		}
	}
	return max
}
