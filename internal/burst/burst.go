// Package burst is the hand-off leaf shared by internal/input (source →
// pump) and internal/engine (dispatcher → shard): the one {segment, lease}
// pair that crosses both, and the one bounded multi-producer /
// single-consumer queue that carries it.
//
// The queue moves bursts, not segments. Producers append under a short
// lock into chunks of at most Max segments and wake the consumer only
// when the queue goes from empty to non-empty; the consumer swaps out the
// oldest chunk whole — one operation however many segments it holds — and
// hands its previous, emptied chunk back for producers to refill. There
// is no timer and nothing to tune: a burst is whatever accumulated while
// the consumer was busy, so bursts form only where there is backlog and a
// quiet queue delivers the one-segment burst immediately (DESIGN.md §9).
package burst

import (
	"errors"
	"sync"

	"matchfilter/internal/pcap"
)

// Item is one decoded segment plus the lease on the buffer its payload
// lives in (nil for ordinarily-allocated payloads). Whoever holds an Item
// owns the lease and must release it exactly once.
type Item struct {
	Seg   pcap.Segment
	Owner pcap.Owner
}

// Release settles the lease of every item that carries one.
func Release(items []Item) {
	for i := range items {
		if o := items[i].Owner; o != nil {
			o.Release()
		}
	}
}

// Max is the most segments one Take returns: the chunk size, and so the
// upper bound on a shard's lockstep window and on a pump's dispatch burst.
const Max = 256

var (
	// ErrClosed is returned by Put and Offer once Close has been called.
	ErrClosed = errors.New("burst: queue closed")
	// ErrCanceled is returned by a Put whose cancel channel fired while it
	// waited for room.
	ErrCanceled = errors.New("burst: put canceled")
)

// Queue is a bounded FIFO of Items for any number of producers and one
// consumer. The bound is in segments. Chunks grow on demand and are
// recycled through the consumer, so an idle queue holds no buffers.
type Queue struct {
	bound int

	mu sync.Mutex
	// chunks is the FIFO: every chunk is non-empty, all but the last hold
	// exactly Max items, and the last takes appends until it does.
	chunks [][]Item
	free   [][]Item // emptied chunks handed back by Take
	n      int      // items across chunks
	parked int      // producers waiting for room
	poked  bool
	closed bool

	ready chan struct{} // consumer wake-up: empty → non-empty, Poke, Close
	room  chan struct{} // producer wake-up: a Take made room
	done  chan struct{} // closed by Close, for producers parked in Put
}

// NewQueue returns a queue holding at most bound segments.
func NewQueue(bound int) *Queue {
	return &Queue{
		bound: bound,
		ready: make(chan struct{}, 1),
		room:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
}

// signal leaves a wake-up token in c unless one is already pending.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// fill appends as many of items as the bound admits and returns how many.
// Caller holds mu.
func (q *Queue) fill(items []Item) int {
	k := min(len(items), q.bound-q.n)
	for rest := items[:k]; len(rest) > 0; {
		last := len(q.chunks) - 1
		if last < 0 || len(q.chunks[last]) == Max {
			var c []Item
			if f := len(q.free) - 1; f >= 0 {
				c, q.free = q.free[f], q.free[:f]
			}
			q.chunks = append(q.chunks, c)
			last++
		}
		m := min(len(rest), Max-len(q.chunks[last]))
		q.chunks[last] = append(q.chunks[last], rest[:m]...)
		rest = rest[m:]
	}
	q.n += k
	return k
}

// Put appends items in order, blocking while the queue is full. It
// returns how many were queued: all of them with a nil error, fewer with
// ErrClosed after Close or ErrCanceled once cancel is ready — the caller
// still owns the rest. A nil cancel never fires.
func (q *Queue) Put(cancel <-chan struct{}, items ...Item) (int, error) {
	return q.put(cancel, true, items)
}

// Offer is Put that never blocks: what does not fit is left to the caller.
func (q *Queue) Offer(items ...Item) (int, error) {
	return q.put(nil, false, items)
}

func (q *Queue) put(cancel <-chan struct{}, block bool, items []Item) (int, error) {
	n, parked := 0, false
	for {
		q.mu.Lock()
		if parked {
			q.parked--
		}
		if q.closed {
			q.mu.Unlock()
			return n, ErrClosed
		}
		k := q.fill(items[n:])
		n += k
		wake := k > 0 && q.n == k // was empty: the consumer may be asleep
		parked = block && n < len(items)
		if parked {
			q.parked++
		} else if q.parked > 0 && q.n < q.bound {
			signal(q.room) // room left over: pass the wake-up on
		}
		q.mu.Unlock()
		if wake {
			signal(q.ready)
		}
		if !parked {
			return n, nil
		}
		select {
		case <-q.room:
		case <-q.done:
		case <-cancel:
			q.mu.Lock()
			q.parked--
			q.mu.Unlock()
			return n, ErrCanceled
		}
	}
}

// Take blocks until the queue holds segments and swaps out the oldest
// chunk — at most Max of them, everything queued when that is less. prev
// is the burst the previous Take returned (nil the first time): the
// consumer is done with it, and its backing array goes back to the
// producers. An empty burst with open true answers a Poke; open is false
// once the queue is closed and drained.
func (q *Queue) Take(prev []Item) (items []Item, open bool) {
	clear(prev) // drop the payload and lease references before reuse
	for {
		q.mu.Lock()
		if cap(prev) > 0 {
			q.free = append(q.free, prev[:0])
			prev = nil
		}
		if last := len(q.chunks) - 1; last >= 0 {
			items = q.chunks[0]
			copy(q.chunks, q.chunks[1:])
			q.chunks[last] = nil
			q.chunks = q.chunks[:last]
			q.n -= len(items)
			if q.parked > 0 {
				signal(q.room)
			}
			q.mu.Unlock()
			return items, true
		}
		poked, closed := q.poked, q.closed
		q.poked = false
		q.mu.Unlock()
		if poked {
			return nil, true
		}
		if closed {
			return nil, false
		}
		<-q.ready
	}
}

// Poke makes the next Take of an empty queue return an empty burst
// instead of waiting, so the consumer can look at state kept elsewhere.
func (q *Queue) Poke() {
	q.mu.Lock()
	q.poked = true
	q.mu.Unlock()
	signal(q.ready)
}

// Close stops intake: Put and Offer return ErrClosed from now on, parked
// producers included. What is queued stays for the consumer to drain.
// Close is idempotent.
func (q *Queue) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.done)
	}
	q.mu.Unlock()
	signal(q.ready)
}

// Len returns the number of queued segments.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Cap returns the bound, in segments.
func (q *Queue) Cap() int { return q.bound }
