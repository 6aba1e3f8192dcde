package localindex

import (
	"fmt"
	"math"
	"math/bits"
)

// Combiner merges duplicate ids without sorting them. Every bin an
// engine combines is destined to one rank, so its ids lie in that
// rank's contiguous owned range [lo, lo+n): Add scatters each id into a
// presence bitmap over the range — and, for the (id, value) forms, ORs
// or min-merges the value into an array over the same range — and
// Drain walks the bitmap ascending, emitting exactly what sorting the
// added pairs by id and compacting equal ids would: the ascending
// duplicate-free ids, one merged value per id, and the count of pairs
// the merge absorbed.
//
// One Combiner serves one merge form at a time (Add/Drain, AddOr/
// DrainOr, or AddMin/DrainMin between two drains) and is built to be
// allocated once and reused: Reset retargets it to another range of at
// most the constructed capacity, and a drain clears only the words and
// values it emitted, so an emptied Combiner costs nothing to reuse.
type Combiner struct {
	lo, n uint32
	// present has bit i set when id lo+i was added since the last drain.
	present []uint64
	// masks[i] is the OR of the masks added for lo+i, zero when absent;
	// mins[i] the minimum value added for lo+i, MaxUint32 when absent.
	// Keeping the absent values neutral makes the scatters branch-free.
	// Both are allocated by the first AddOr / AddMin.
	masks []uint64
	mins  []uint32
	// adds counts the ids added since the last drain; first..last spans
	// the offsets they touched (first > last when none), which bounds
	// the drain's walk.
	adds        int
	first, last uint32
}

// NewCombiner returns an empty Combiner over [0, capacity) that Reset
// can retarget to any range of at most capacity ids.
func NewCombiner(capacity int) *Combiner {
	return &Combiner{
		n:       uint32(capacity),
		present: make([]uint64, (capacity+63)/64),
		first:   math.MaxUint32,
	}
}

// Reset retargets the (drained) Combiner to the range [lo, lo+n).
func (c *Combiner) Reset(lo uint32, n int) {
	if c.adds != 0 {
		panic(fmt.Sprintf("localindex: Combiner.Reset with %d undrained ids", c.adds))
	}
	if n < 0 || n > 64*len(c.present) {
		panic(fmt.Sprintf("localindex: Combiner.Reset to %d ids exceeds the capacity of %d", n, 64*len(c.present)))
	}
	c.lo, c.n = lo, uint32(n)
}

// outOfRange reports an id outside the Combiner's range. It is kept out
// of line so the scatter loops stay small.
//
//go:noinline
func (c *Combiner) outOfRange(id uint32) {
	panic(fmt.Sprintf("localindex: Combiner id %d outside its range [%d, %d)", id, c.lo, uint64(c.lo)+uint64(c.n)))
}

// touch records that ids with offsets in [first, last] were added.
func (c *Combiner) touch(added int, first, last uint32) {
	if added > 0 {
		c.adds += added
		c.first, c.last = min(c.first, first), max(c.last, last)
	}
}

// Add scatters ids into the set. An id outside the range panics.
func (c *Combiner) Add(ids []uint32) {
	first, last := uint32(math.MaxUint32), uint32(0)
	for _, id := range ids {
		off := id - c.lo
		if off >= c.n {
			c.outOfRange(id)
		}
		c.present[off>>6] |= 1 << (off & 63)
		first, last = min(first, off), max(last, off)
	}
	c.touch(len(ids), first, last)
}

// AddOr scatters (id, mask) pairs, OR-merging the masks of equal ids.
func (c *Combiner) AddOr(ids []uint32, masks []uint64) {
	if c.masks == nil {
		c.masks = make([]uint64, 64*len(c.present))
	}
	masks = masks[:len(ids)]
	first, last := uint32(math.MaxUint32), uint32(0)
	for i, id := range ids {
		off := id - c.lo
		if off >= c.n {
			c.outOfRange(id)
		}
		c.present[off>>6] |= 1 << (off & 63)
		c.masks[off] |= masks[i]
		first, last = min(first, off), max(last, off)
	}
	c.touch(len(ids), first, last)
}

// AddMin scatters (id, value) pairs, keeping the minimum value of equal
// ids.
func (c *Combiner) AddMin(ids, vals []uint32) {
	if c.mins == nil {
		c.mins = make([]uint32, 64*len(c.present))
		for i := range c.mins {
			c.mins[i] = math.MaxUint32
		}
	}
	vals = vals[:len(ids)]
	first, last := uint32(math.MaxUint32), uint32(0)
	for i, id := range ids {
		off := id - c.lo
		if off >= c.n {
			c.outOfRange(id)
		}
		c.present[off>>6] |= 1 << (off & 63)
		c.mins[off] = min(c.mins[off], vals[i])
		first, last = min(first, off), max(last, off)
	}
	c.touch(len(ids), first, last)
}

// drain walks the touched words ascending, calling emit with every
// present offset, and leaves the bitmap empty. It returns the number of
// added ids the merge absorbed.
func (c *Combiner) drain(emit func(off uint32)) int {
	if c.adds == 0 {
		return 0
	}
	distinct := 0
	for wi := c.first >> 6; wi <= c.last>>6; wi++ {
		w := c.present[wi]
		if w == 0 {
			continue
		}
		c.present[wi] = 0
		distinct += bits.OnesCount64(w)
		for ; w != 0; w &= w - 1 {
			emit(wi<<6 + uint32(bits.TrailingZeros64(w)))
		}
	}
	absorbed := c.adds - distinct
	c.adds, c.first, c.last = 0, math.MaxUint32, 0
	return absorbed
}

// Drain appends the ascending duplicate-free ids added since the last
// drain to ids and empties the Combiner. absorbed is the number of
// added ids that were duplicates.
func (c *Combiner) Drain(ids []uint32) (out []uint32, absorbed int) {
	absorbed = c.drain(func(off uint32) { ids = append(ids, c.lo+off) })
	return ids, absorbed
}

// DrainOr is Drain for AddOr pairs: masks receives, parallel to ids,
// the OR of every mask added for that id.
func (c *Combiner) DrainOr(ids []uint32, masks []uint64) ([]uint32, []uint64, int) {
	absorbed := c.drain(func(off uint32) {
		ids = append(ids, c.lo+off)
		masks = append(masks, c.masks[off])
		c.masks[off] = 0
	})
	return ids, masks, absorbed
}

// DrainMin is Drain for AddMin pairs: vals receives, parallel to ids,
// the minimum value added for that id.
func (c *Combiner) DrainMin(ids, vals []uint32) ([]uint32, []uint32, int) {
	absorbed := c.drain(func(off uint32) {
		ids = append(ids, c.lo+off)
		vals = append(vals, c.mins[off])
		c.mins[off] = math.MaxUint32
	})
	return ids, vals, absorbed
}
