package frontier

import (
	"fmt"
	"math/bits"

	"repro/internal/localindex"
)

// Dense is the bitmap frontier: one bit per universe vertex, built on
// localindex.Bitset. Union is word-wise OR; the bottom-up BFS steps and
// the dense wire encoding work directly on this form.
type Dense struct {
	lo    uint32
	n     int
	bits  *localindex.Bitset
	count int
}

// NewDense returns an empty dense frontier over [lo, lo+n).
func NewDense(lo uint32, n int) *Dense {
	return &Dense{lo: lo, n: n, bits: localindex.NewBitset(n)}
}

func (d *Dense) check(v uint32) {
	if v < d.lo || uint64(v) >= uint64(d.lo)+uint64(d.n) {
		panic(fmt.Sprintf("frontier: vertex %d outside universe [%d, %d)", v, d.lo, uint64(d.lo)+uint64(d.n)))
	}
}

// clear empties the set, keeping the bitmap's storage.
func (d *Dense) clear() {
	clear(d.bits.Words())
	d.count = 0
}

// Add inserts v.
func (d *Dense) Add(v uint32) {
	d.check(v)
	if !d.bits.TestAndSet(v - d.lo) {
		d.count++
	}
}

// Has reports membership.
func (d *Dense) Has(v uint32) bool {
	d.check(v)
	return d.bits.Test(v - d.lo)
}

// Len returns the number of members.
func (d *Dense) Len() int { return d.count }

// Universe returns the id range.
func (d *Dense) Universe() (uint32, int) { return d.lo, d.n }

// Iterate visits members in ascending order by scanning set bits.
func (d *Dense) Iterate(fn func(v uint32)) {
	for wi, w := range d.bits.Words() {
		base := d.lo + uint32(wi)*64
		for w != 0 {
			fn(base + uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// Vertices materializes the ascending member slice.
func (d *Dense) Vertices() []uint32 {
	out := make([]uint32, 0, d.count)
	d.Iterate(func(v uint32) { out = append(out, v) })
	return out
}

// Kind returns KindDense.
func (d *Dense) Kind() Kind { return KindDense }

// Or unions src into d (both over the same universe) by word-wise OR.
func (d *Dense) Or(src *Dense) {
	if d.lo != src.lo || d.n != src.n {
		panic("frontier: Or over mismatched universes")
	}
	dw, sw := d.bits.Words(), src.bits.Words()
	count := 0
	for i := range dw {
		dw[i] |= sw[i]
		count += bits.OnesCount64(dw[i])
	}
	d.count = count
}

// WireBits packs the membership bitmap into 32-bit wire words (bit i of
// word j is vertex lo+32j+i), the payload form of the bitmap exchanges.
func (d *Dense) WireBits() []uint32 {
	out := NewBits(d.n)
	for wi, w := range d.bits.Words() {
		if 2*wi < len(out) {
			out[2*wi] = uint32(w)
		}
		if 2*wi+1 < len(out) {
			out[2*wi+1] = uint32(w >> 32)
		}
	}
	return out
}
