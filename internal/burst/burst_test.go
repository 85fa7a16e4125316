package burst

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"matchfilter/internal/pcap"
)

// item is a segment identified by (producer, ordinal).
func item(producer, i int) Item {
	return Item{Seg: pcap.Segment{Key: pcap.FlowKey{SrcIP: uint32(producer)}, Seq: uint32(i)}}
}

func items(producer, n int) []Item {
	out := make([]Item, n)
	for i := range out {
		out[i] = item(producer, i)
	}
	return out
}

// counted is an Owner that counts its releases.
type counted struct{ n atomic.Int64 }

func (c *counted) Release() { c.n.Add(1) }

func TestBoundIsInSegments(t *testing.T) {
	q := NewQueue(10)
	if n, err := q.Offer(items(0, 7)...); n != 7 || err != nil {
		t.Fatalf("Offer(7) into an empty queue of 10 = %d, %v", n, err)
	}
	if n, err := q.Offer(items(1, 7)...); n != 3 || err != nil {
		t.Fatalf("Offer(7) with room for 3 = %d, %v; want 3, nil", n, err)
	}
	if n, err := q.Offer(item(2, 0)); n != 0 || err != nil {
		t.Fatalf("Offer into a full queue = %d, %v; want 0, nil", n, err)
	}
	if q.Len() != 10 || q.Cap() != 10 {
		t.Fatalf("Len, Cap = %d, %d; want 10, 10", q.Len(), q.Cap())
	}
	got, open := q.Take(nil)
	if !open || len(got) != 10 || q.Len() != 0 {
		t.Fatalf("Take = %d items, open %v, Len %d; want everything queued", len(got), open, q.Len())
	}
	for i, it := range got {
		want := item(0, i)
		if i >= 7 {
			want = item(1, i-7)
		}
		if it.Seg.Key != want.Seg.Key || it.Seg.Seq != want.Seg.Seq {
			t.Fatalf("item %d out of order: %+v", i, it.Seg)
		}
	}
}

// A backlog deeper than Max crosses in bursts of at most Max, in order.
func TestTakeIsBoundedByMax(t *testing.T) {
	q := NewQueue(3 * Max)
	if n, err := q.Put(nil, items(0, 2*Max+5)...); n != 2*Max+5 || err != nil {
		t.Fatal(n, err)
	}
	var prev []Item
	next := 0
	for _, want := range []int{Max, Max, 5} {
		var open bool
		prev, open = q.Take(prev)
		if !open || len(prev) != want {
			t.Fatalf("Take = %d items, open %v; want %d", len(prev), open, want)
		}
		for _, it := range prev {
			if int(it.Seg.Seq) != next {
				t.Fatalf("got ordinal %d, want %d", it.Seg.Seq, next)
			}
			next++
		}
	}
}

func TestBlockedPutReturnsOnCancelAndClose(t *testing.T) {
	for _, how := range []string{"cancel", "close"} {
		t.Run(how, func(t *testing.T) {
			q := NewQueue(2)
			cancel := make(chan struct{})
			type result struct {
				n   int
				err error
			}
			done := make(chan result, 1)
			go func() {
				n, err := q.Put(cancel, items(0, 5)...)
				done <- result{n, err}
			}()
			for q.Len() < 2 { // the producer has filled the queue and must now be waiting
				time.Sleep(time.Millisecond)
			}
			select {
			case r := <-done:
				t.Fatalf("Put of 5 into a queue of 2 returned %d, %v without room", r.n, r.err)
			case <-time.After(20 * time.Millisecond):
			}
			want := ErrCanceled
			if how == "cancel" {
				close(cancel)
			} else {
				q.Close()
				want = ErrClosed
			}
			select {
			case r := <-done:
				if r.n != 2 || !errors.Is(r.err, want) {
					t.Fatalf("blocked Put returned %d, %v; want 2, %v", r.n, r.err, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("Put still blocked after %s", how)
			}
		})
	}
}

func TestCloseDrains(t *testing.T) {
	q := NewQueue(8)
	if _, err := q.Put(nil, items(0, 5)...); err != nil {
		t.Fatal(err)
	}
	q.Close()
	q.Close() // idempotent
	if n, err := q.Put(nil, item(1, 0)); n != 0 || !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %d, %v", n, err)
	}
	if n, err := q.Offer(item(1, 0)); n != 0 || !errors.Is(err, ErrClosed) {
		t.Fatalf("Offer after Close = %d, %v", n, err)
	}
	got, open := q.Take(nil)
	if !open || len(got) != 5 {
		t.Fatalf("Take after Close = %d items, open %v; want the 5 queued before it", len(got), open)
	}
	if got, open = q.Take(got); open || len(got) != 0 {
		t.Fatalf("Take of a closed, drained queue = %d items, open %v", len(got), open)
	}
}

// The quiet-queue property: one segment is handed over as the one-segment
// burst, at once — the consumer does not wait for a second to arrive.
func TestLoneItemIsTakenAtOnce(t *testing.T) {
	q := NewQueue(64)
	got := make(chan int, 1)
	go func() {
		items, _ := q.Take(nil)
		got <- len(items)
	}()
	time.Sleep(10 * time.Millisecond) // let the consumer go to sleep on the empty queue
	if _, err := q.Put(nil, item(0, 0)); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-got:
		if n != 1 {
			t.Fatalf("burst of %d, want the lone item", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consumer still waiting with one item queued")
	}
}

func TestPokeWakesAnIdleConsumer(t *testing.T) {
	q := NewQueue(4)
	type taken struct {
		n    int
		open bool
	}
	got := make(chan taken, 1)
	go func() {
		items, open := q.Take(nil)
		got <- taken{len(items), open}
	}()
	q.Poke()
	select {
	case r := <-got:
		if r.n != 0 || !r.open {
			t.Fatalf("poked Take = %d items, open %v; want an empty burst on an open queue", r.n, r.open)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Poke did not wake the consumer")
	}
}

// N producers, one consumer, a bound far below the traffic: every item
// arrives exactly once and each producer's items arrive in order.
func TestProducersLoseAndDuplicateNothing(t *testing.T) {
	const producers, each = 8, 5000
	q := NewQueue(100)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			all := items(p, each)
			for len(all) > 0 {
				k := min(1+(len(all)*7+p)%300, len(all)) // singles up to more than a chunk
				if n, err := q.Put(nil, all[:k]...); n != k || err != nil {
					t.Errorf("producer %d: Put = %d, %v", p, n, err)
					return
				}
				all = all[k:]
			}
		}(p)
	}
	go func() {
		wg.Wait()
		q.Close()
	}()
	next := make([]int, producers)
	var burst []Item
	for {
		var open bool
		if burst, open = q.Take(burst); !open {
			break
		}
		if len(burst) == 0 || len(burst) > Max {
			t.Fatalf("burst of %d", len(burst))
		}
		for _, it := range burst {
			p := int(it.Seg.Key.SrcIP)
			if int(it.Seg.Seq) != next[p] {
				t.Fatalf("producer %d: got ordinal %d, want %d", p, it.Seg.Seq, next[p])
			}
			next[p]++
		}
	}
	for p, n := range next {
		if n != each {
			t.Errorf("producer %d: %d of %d items arrived", p, n, each)
		}
	}
}

func TestReleaseSkipsUnleasedItems(t *testing.T) {
	var c counted
	Release([]Item{{Owner: &c}, {}, {Owner: &c}})
	if c.n.Load() != 2 {
		t.Fatalf("%d releases, want 2", c.n.Load())
	}
}

// BenchmarkBurstQueue moves segments from one producer to one consumer:
// per-segment Puts against a consumer that swaps out whatever has queued,
// beside the same traffic over the buffered channel the queue replaced.
func BenchmarkBurstQueue(b *testing.B) {
	b.Run("queue", func(b *testing.B) {
		q := NewQueue(4096)
		done := make(chan int)
		go func() {
			n := 0
			var burst []Item
			for {
				var open bool
				if burst, open = q.Take(burst); !open {
					done <- n
					return
				}
				n += len(burst)
			}
		}()
		it := item(0, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := q.Put(nil, it); err != nil {
				b.Fatal(err)
			}
		}
		q.Close()
		if n := <-done; n != b.N {
			b.Fatalf("consumer saw %d of %d", n, b.N)
		}
	})
	b.Run("chan", func(b *testing.B) {
		ch := make(chan Item, 4096) // the depth of the queue above
		done := make(chan int)
		go func() {
			n := 0
			for range ch {
				n++
			}
			done <- n
		}()
		it := item(0, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ch <- it
		}
		close(ch)
		if n := <-done; n != b.N {
			b.Fatalf("consumer saw %d of %d", n, b.N)
		}
	})
}
