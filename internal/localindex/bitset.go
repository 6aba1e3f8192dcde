package localindex

import "math/bits"

// Bitset is a fixed-size dense bitset over local indices. It backs the
// dense form of a frontier set and Δ-stepping's settled marks.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns a bitset able to hold indices [0, n).
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity in bits.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i.
func (b *Bitset) Set(i uint32) { b.words[i>>6] |= 1 << (i & 63) }

// Clear clears bit i.
func (b *Bitset) Clear(i uint32) { b.words[i>>6] &^= 1 << (i & 63) }

// Test reports whether bit i is set.
func (b *Bitset) Test(i uint32) bool { return b.words[i>>6]&(1<<(i&63)) != 0 }

// TestAndSet sets bit i and reports whether it was already set.
func (b *Bitset) TestAndSet(i uint32) bool {
	w, m := i>>6, uint64(1)<<(i&63)
	old := b.words[w]&m != 0
	b.words[w] |= m
	return old
}

// Words exposes the backing word array (64 bits per word, bit i of
// word j is index 64j+i) for word-at-a-time scans and unions; callers
// own any invariants they break by writing to it.
func (b *Bitset) Words() []uint64 { return b.words }

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset clears every bit.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}
