package comm

// lend is a LIFO free list of scratch slices. The collectives borrow
// their per-call bookkeeping (posted requests, per-member payload
// tables, merge buffers) from the rank's Comm instead of allocating it
// on every call; a Comm lives for one Run, so nothing outlasts the run.
type lend[T any] struct{ free [][]T }

// get returns a zeroed slice of length n, reusing the most recently
// returned one when it is large enough.
func (l *lend[T]) get(n int) []T {
	if k := len(l.free); k > 0 && cap(l.free[k-1]) >= n {
		s := l.free[k-1][:n]
		l.free = l.free[:k-1]
		clear(s)
		return s
	}
	return make([]T, n)
}

func (l *lend[T]) put(s []T) { l.free = append(l.free, s) }

// Requests lends a zeroed slice of n requests for one collective call;
// hand it back with ReleaseRequests once every request in it has been
// waited. Borrows nest: a part handler that runs a collective of its
// own gets a slice of its own.
func (c *Comm) Requests(n int) []Request { return c.reqs.get(n) }

// ReleaseRequests returns a slice borrowed from Requests.
func (c *Comm) ReleaseRequests(r []Request) { c.reqs.put(r) }

// Lists lends a zeroed table of n payload slices under the same rules
// as Requests.
func (c *Comm) Lists(n int) [][]uint32 { return c.lists.get(n) }

// ReleaseLists returns a table borrowed from Lists.
func (c *Comm) ReleaseLists(l [][]uint32) { c.lists.put(l) }

// Words lends an empty word buffer for one collective call, with
// whatever capacity an earlier borrower grew it to; the union folds
// merge into it. Hand it back, grown or not, with ReleaseWords, and keep
// nothing that points into it.
func (c *Comm) Words() []uint32 { return c.words.get(0) }

// ReleaseWords returns a buffer borrowed from Words.
func (c *Comm) ReleaseWords(w []uint32) { c.words.put(w[:0]) }
