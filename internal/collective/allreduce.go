package collective

import (
	"repro/internal/comm"
)

// AllReduceOp selects the combining operator for the point-to-point
// allreduce.
type AllReduceOp int

// Operators for AllReduceP2P.
const (
	OpSum AllReduceOp = iota
	OpMax
	OpMin
	OpOr
)

func combineU64(a, b uint64, op AllReduceOp) uint64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpOr:
		return a | b
	default:
		panic("collective: unknown allreduce op")
	}
}

// AllReduceP2P combines one uint64 per group member with the given
// operator using only point-to-point messages: recursive doubling on
// the largest power-of-two subset, with the remainder folded in before
// and fanned out after. ceil(log2 G)+2 rounds; every member returns the
// same result.
//
// comm.Comm also offers tree-modelled reductions (AllReduceSum etc.)
// that stand in for BlueGene/L's dedicated combine network; this
// implementation is the torus-only alternative, used when the BFS is
// configured to run its level-termination checks over point-to-point
// messages like its data collectives.
func AllReduceP2P(c *comm.Comm, g comm.Group, o Opts, val uint64, op AllReduceOp) uint64 {
	size := g.Size()
	if size == 1 {
		return val
	}
	var st Stats
	tr := begin(c, "allreduce-p2p")
	defer end(tr, &st)
	// Largest power of two <= size.
	pof2 := 1
	for pof2*2 <= size {
		pof2 *= 2
	}
	rem := size - pof2
	me := g.Me

	enc := func(v uint64) []uint32 { return []uint32{uint32(v >> 32), uint32(v)} }
	dec := func(d []uint32) uint64 {
		if len(d) != 2 {
			panic("collective: malformed allreduce payload")
		}
		return uint64(d[0])<<32 | uint64(d[1])
	}

	// Pre-fold: members >= pof2 send their value to (me - pof2).
	if me >= pof2 {
		c.Send(g.World(me-pof2), o.Tag, enc(val))
	} else if me < rem {
		val = combineU64(val, dec(c.Recv(g.World(me+pof2), o.Tag)), op)
	}

	// Recursive doubling among the first pof2 members.
	if me < pof2 {
		for mask := 1; mask < pof2; mask <<= 1 {
			partner := me ^ mask
			got := c.SendRecv(g.World(partner), o.Tag+1+mask, enc(val))
			val = combineU64(val, dec(got), op)
		}
	}

	// Fan-out to the folded members.
	if me < rem {
		c.Send(g.World(me+pof2), o.Tag+1<<19, enc(val))
	} else if me >= pof2 {
		val = dec(c.Recv(g.World(me-pof2), o.Tag+1<<19))
	}
	return val
}
