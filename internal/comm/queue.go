package comm

import "sync"

// queue is an unbounded FIFO of messages for one (dst, src) pair.
// Unbounded buffering mirrors eager MPI sends and makes every
// deterministic SPMD schedule deadlock-free regardless of chunk counts
// (a bounded mailbox would deadlock two ranks that stream many chunks
// at each other before receiving). Memory stays bounded in practice
// because the BFS protocols never have more than a level's worth of
// traffic in flight.
type queue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	items    []message
	head     int
	poisoned bool
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) push(m message) {
	q.mu.Lock()
	q.items = append(q.items, m)
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks until a message is available or the queue is poisoned;
// the bool result is false when poisoned.
func (q *queue) pop() (message, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head >= len(q.items) && !q.poisoned {
		q.cond.Wait()
	}
	if q.head >= len(q.items) {
		return message{}, false
	}
	m := q.items[q.head]
	q.items[q.head] = message{} // release payload reference
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return m, true
}

// peek returns the head message without consuming it, never blocking;
// the bool result is false when the queue is currently empty or
// poisoned.
func (q *queue) peek() (message, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head >= len(q.items) || q.poisoned {
		return message{}, false
	}
	return q.items[q.head], true
}

func (q *queue) poison() {
	q.mu.Lock()
	q.poisoned = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *queue) unpoison() {
	q.mu.Lock()
	q.poisoned = false
	q.items = q.items[:0]
	q.head = 0
	q.mu.Unlock()
}
