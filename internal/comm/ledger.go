package comm

import "repro/internal/torus"

// Peer is one entry of a rank's traffic ledger: the logical messages
// (frames) this rank sent to one peer and received from it, and their
// on-wire bytes, envelope included.
type Peer struct {
	Sent, Recv           uint64
	SentBytes, RecvBytes uint64
}

// frameBytes is the on-wire size of a frame carrying data.
func frameBytes(data []uint32) int { return messageHeaderBytes + 4*len(data) }

// total sums one column of the traffic ledger.
func (c *Comm) total(col func(Peer) uint64) (n uint64) {
	for _, p := range c.peers {
		n += col(p)
	}
	return n
}

// hopTotal sums one receive column of the traffic ledger weighted by
// the torus hop count from each peer to this rank.
func (c *Comm) hopTotal(col func(Peer) uint64) (n uint64) {
	for src, p := range c.peers {
		n += uint64(c.world.mapping.Hops(src, c.rank)) * col(p)
	}
	return n
}

// BytesSent returns total payload+header bytes sent by this rank.
func (c *Comm) BytesSent() uint64 { return c.total(func(p Peer) uint64 { return p.SentBytes }) }

// MsgsSent returns the number of messages sent by this rank.
func (c *Comm) MsgsSent() uint64 { return c.total(func(p Peer) uint64 { return p.Sent }) }

// BytesRecv returns total payload+header bytes received by this rank.
func (c *Comm) BytesRecv() uint64 { return c.total(func(p Peer) uint64 { return p.RecvBytes }) }

// MsgsRecv returns the number of messages received by this rank.
func (c *Comm) MsgsRecv() uint64 { return c.total(func(p Peer) uint64 { return p.Recv }) }

// HopsRecv returns the sum of torus hop counts over received messages.
func (c *Comm) HopsRecv() uint64 { return c.hopTotal(func(p Peer) uint64 { return p.Recv }) }

// HopBytes returns the sum of bytes x hops over received messages —
// the total link traffic this rank's receives imposed on the torus.
// Task-mapping quality (Figure 1) shows up here even when the cost
// model's per-hop latency is too small to move end-to-end times.
func (c *Comm) HopBytes() uint64 { return c.hopTotal(func(p Peer) uint64 { return p.RecvBytes }) }

// LinkLoads returns the maximum and total bytes any directed torus link
// carried over the comms' receives, and the number of links used. Each
// rank pair that exchanged traffic is routed once, and the receiver's
// byte count from that sender is charged to every link on the route.
// These per-link loads are what the Figure 1 task mapping optimizes on
// the real machine: the deterministic clock model has no contention,
// so congestion shows up here rather than in simulated time.
func LinkLoads(comms []*Comm) (maxBytes, totalBytes uint64, links int) {
	if len(comms) == 0 {
		return 0, 0, 0
	}
	m := comms[0].world.mapping
	load := make([]uint64, 6*m.Torus.Nodes())
	var path []torus.Coord
	for _, c := range comms {
		for src, p := range c.peers {
			if p.RecvBytes == 0 {
				continue
			}
			path = m.Torus.Route(path[:0], m.Coords[src], m.Coords[c.rank])
			for i := 1; i < len(path); i++ {
				load[m.Torus.LinkID(path[i-1], path[i])] += p.RecvBytes
			}
		}
	}
	for _, v := range load {
		if v == 0 {
			continue
		}
		links++
		totalBytes += v
		maxBytes = max(maxBytes, v)
	}
	return maxBytes, totalBytes, links
}
