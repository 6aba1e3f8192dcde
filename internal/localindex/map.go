// Package localindex provides the local-indexing machinery of §2.4.2 of
// the paper: compact open-addressing hash maps from global vertex ids to
// local indices, dense bitsets over local indices, and the sorted-set and
// dense-range combine utilities behind the union-fold collective.
//
// The paper's search reaches every local index through such a map and
// notes that it spends most of its time in the probes. Here the maps are
// built once, when a graph is distributed, and are immutable afterwards,
// so a lookup whose answer cannot change is made by the loader instead:
// the partition stores carry the local index of every edge-list entry
// and, for the simulated clock, the number of probes GetCounted would
// have taken to find it. What a search still probes is the one map keyed
// by what arrives over the wire (received frontier vertex → partial edge
// list). The map is written for that: power-of-two capacity, linear
// probing, no per-entry allocation, lookups that write nothing.
package localindex

import "math/bits"

// Map is an open-addressing hash map from uint32 keys to uint32 values
// with linear probing. The zero value is not usable; call NewMap. A key
// may be inserted at most once (Put of an existing key overwrites).
// Lookups write nothing, so a built map serves any number of concurrent
// readers; the searches count their own probes (GetCounted).
//
// The sentinel empty slot is encoded in a separate occupancy bitmap so
// that all 2^32 keys, including 0, are valid.
type Map struct {
	keys []uint32
	vals []uint32
	used []uint64 // occupancy bitmap, 1 bit per slot
	mask uint32
	n    int
	// spareKeys, spareVals and spareUsed are, once the map has been Reset,
	// the table grow retired last, kept at full capacity: the next grow
	// writes into it when it is large enough, so a Reset map refilled to
	// its old size allocates nothing. A map never Reset keeps no spare.
	spareKeys, spareVals []uint32
	spareUsed            []uint64
	recycle              bool
}

// NewMap returns a map pre-sized for n entries.
func NewMap(n int) *Map {
	cap := initialCap(n)
	return &Map{
		keys: make([]uint32, cap),
		vals: make([]uint32, cap),
		used: make([]uint64, (cap+63)/64),
		mask: uint32(cap - 1),
	}
}

func initialCap(n int) int { return nextPow2(n*2 + 8) }

// Reset empties the map and gives it the capacity NewMap(n) would, so
// every later Put, grow and lookup behaves as on NewMap(n), while the
// tables it grew are kept for it to grow into again.
func (m *Map) Reset(n int) {
	if c := initialCap(n); cap(m.keys) < c {
		*m = *NewMap(n)
	} else {
		m.keys, m.vals, m.used = m.keys[:c], m.vals[:c], m.used[:(c+63)/64]
		clear(m.used)
		m.mask = uint32(c - 1)
		m.n = 0
	}
	m.recycle = true
}

func nextPow2(n int) int {
	if n < 8 {
		return 8
	}
	return 1 << bits.Len(uint(n-1))
}

// hash32 is Fibonacci hashing of the key; cheap and well-distributed
// for the contiguous-block vertex ids the partitioners produce.
func hash32(k uint32) uint32 {
	return k * 2654435769
}

func (m *Map) isUsed(i uint32) bool { return m.used[i>>6]&(1<<(i&63)) != 0 }
func (m *Map) setUsed(i uint32)     { m.used[i>>6] |= 1 << (i & 63) }

// Len returns the number of entries.
func (m *Map) Len() int { return m.n }

// Put inserts or overwrites key -> val.
func (m *Map) Put(key, val uint32) {
	if m.n*2 >= len(m.keys) {
		m.grow()
	}
	i := hash32(key) & m.mask
	for {
		if !m.isUsed(i) {
			m.keys[i] = key
			m.vals[i] = val
			m.setUsed(i)
			m.n++
			return
		}
		if m.keys[i] == key {
			m.vals[i] = val
			return
		}
		i = (i + 1) & m.mask
	}
}

// Get returns the value for key and whether it is present.
func (m *Map) Get(key uint32) (uint32, bool) {
	val, ok, _ := m.GetCounted(key)
	return val, ok
}

// GetCounted is Get that also returns the number of slot inspections the
// lookup performed. The searches charge CostModel.HashCost per probe, so
// every hot scan looks up through it and keeps its own tally.
func (m *Map) GetCounted(key uint32) (val uint32, ok bool, probes int) {
	i := hash32(key) & m.mask
	for {
		probes++
		if !m.isUsed(i) {
			return 0, false, probes
		}
		if m.keys[i] == key {
			return m.vals[i], true, probes
		}
		i = (i + 1) & m.mask
	}
}

// GetOrPut returns the existing value for key, or inserts next() and
// returns it. Used to build compact indices while streaming edges.
func (m *Map) GetOrPut(key uint32, next func() uint32) uint32 {
	if v, ok := m.Get(key); ok {
		return v
	}
	v := next()
	m.Put(key, v)
	return v
}

// grow doubles the capacity and re-inserts the entries in old slot
// order, each into the first free slot from its home: the keys are
// distinct, so that is where Put would place it, and the layout — what
// every later lookup probes — is the one a Put per entry builds. Only the
// occupancy bitmap of a reused table needs clearing: a slot's key and
// value are read only once it is marked used.
func (m *Map) grow() {
	oldKeys, oldVals, oldUsed := m.keys, m.vals, m.used
	c := len(oldKeys) * 2
	if cap(m.spareKeys) >= c {
		m.keys, m.vals, m.used = m.spareKeys[:c], m.spareVals[:c], m.spareUsed[:(c+63)/64]
		clear(m.used)
	} else {
		m.keys, m.vals, m.used = make([]uint32, c), make([]uint32, c), make([]uint64, (c+63)/64)
	}
	if m.recycle {
		m.spareKeys, m.spareVals, m.spareUsed = oldKeys[:cap(oldKeys)], oldVals[:cap(oldVals)], oldUsed[:cap(oldUsed)]
	}
	m.mask = uint32(c - 1)
	for w, word := range oldUsed {
		for ; word != 0; word &= word - 1 {
			j := w*64 + bits.TrailingZeros64(word)
			i := hash32(oldKeys[j]) & m.mask
			for m.isUsed(i) {
				i = (i + 1) & m.mask
			}
			m.keys[i], m.vals[i] = oldKeys[j], oldVals[j]
			m.setUsed(i)
		}
	}
}

// Rewrite replaces the value of every entry with fn(key, value). No key
// moves, so every lookup, hit or miss, probes exactly as it did before:
// a loader can number its keys after it has seen them all without
// changing what a search is charged.
func (m *Map) Rewrite(fn func(key, val uint32) uint32) {
	for i := range m.keys {
		if m.isUsed(uint32(i)) {
			m.vals[i] = fn(m.keys[i], m.vals[i])
		}
	}
}

// Range calls fn for every entry, in unspecified order. Returning false
// stops the iteration.
func (m *Map) Range(fn func(key, val uint32) bool) {
	for i := range m.keys {
		if m.isUsed(uint32(i)) {
			if !fn(m.keys[i], m.vals[i]) {
				return
			}
		}
	}
}
