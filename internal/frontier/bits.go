package frontier

import (
	"math/bits"
	"slices"
	"sync/atomic"
	"unsafe"
)

// Wire bitmaps are []uint32 with 32 bits per word: bit i of word j
// represents local index 32j+i. They are the payload form the bitmap
// collectives (frontier/unvisited gathers, OR-reduced claims) move over
// the simulated torus, and what the dense wire encoding embeds.

// BitWords returns the number of 32-bit words covering n bits.
func BitWords(n int) int { return (n + 31) / 32 }

// NewBits returns a zeroed wire bitmap covering [0, n).
func NewBits(n int) []uint32 { return make([]uint32, BitWords(n)) }

// SetBit sets bit i.
func SetBit(w []uint32, i uint32) { w[i>>5] |= 1 << (i & 31) }

// SetBitAtomic sets bit i with a compare-and-swap loop, for writers on
// the worker pool that own disjoint bits but share words (the 2D
// bottom-up claim bitmaps): a plain read-OR-write would lose same-word
// updates. The resulting bitmap is identical to serial SetBit calls.
func SetBitAtomic(w []uint32, i uint32) {
	p := &w[i>>5]
	m := uint32(1) << (i & 31)
	for {
		old := atomic.LoadUint32(p)
		if old&m != 0 || atomic.CompareAndSwapUint32(p, old, old|m) {
			return
		}
	}
}

// TestBit reports bit i.
func TestBit(w []uint32, i uint32) bool { return w[i>>5]&(1<<(i&31)) != 0 }

// CountBits returns the number of set bits.
func CountBits(w []uint32) int {
	c := 0
	for _, x := range w {
		c += bits.OnesCount32(x)
	}
	return c
}

// IterateBits calls fn with each set bit index in ascending order.
func IterateBits(w []uint32, fn func(i uint32)) {
	for wi, x := range w {
		base := uint32(wi) * 32
		for x != 0 {
			fn(base + uint32(bits.TrailingZeros32(x)))
			x &= x - 1
		}
	}
}

// IDsToBits packs ids from the universe [lo, lo+n) into a wire bitmap
// indexed by id-lo.
func IDsToBits(ids []uint32, lo uint32, n int) []uint32 {
	w := NewBits(n)
	for _, v := range ids {
		SetBit(w, v-lo)
	}
	return w
}

// appendBitsIDs unpacks a wire bitmap into ascending ids offset by lo,
// appending them to dst.
func appendBitsIDs(dst, w []uint32, lo uint32) []uint32 {
	dst = slices.Grow(dst, CountBits(w))
	for wi, x := range w {
		for base := lo + uint32(wi)*32; x != 0; x &= x - 1 {
			dst = append(dst, base+uint32(bits.TrailingZeros32(x)))
		}
	}
	return dst
}

// Words32 views 64-bit bitmap words (bit i%64 of word i/64 is bit i) as
// the wire bitmap of the same bits, without a copy. It reads them in host
// order, exact on little-endian hosts, which store a uint64's low half
// first; init refuses any other host rather than scramble a set.
func Words32(w []uint64) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(w))), 2*len(w))
}

func init() {
	if Words32([]uint64{1})[0] != 1 {
		panic("frontier: Words32 needs a little-endian host")
	}
}
