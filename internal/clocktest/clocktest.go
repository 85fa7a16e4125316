// Package clocktest is a manual guard.Clock for tests: its time moves
// only when the test advances it, and its timers fire inside Advance, in
// due order, on the caller's goroutine. A test binds it through the
// export_test.go of the package under test and states every timing
// condition in its ticks: "the supervisor arms a 100ms backoff", "the
// watchdog fires on its fourth poll" — never a real-time wait.
//
// The one real-time bound here is the hang guard of Await: a timer the
// test expects that is never armed fails the test after ten seconds
// instead of hanging it. No timing condition rests on it.
package clocktest

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// hangGuard bounds how long Await waits for the code under test to arm
// the timer it expects.
const hangGuard = 10 * time.Second

// Clock is a manual clock. The zero value is not usable; call New.
type Clock struct {
	mu      sync.Mutex
	now     time.Time
	timers  []*timer
	changed chan struct{} // closed and replaced on every arm and advance
}

type timer struct {
	at time.Time
	f  func()
}

// New returns a clock stopped at a fixed, non-zero instant.
func New() *Clock {
	return &Clock{now: time.Unix(1e9, 0), changed: make(chan struct{})}
}

// Now implements guard.Clock.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc implements guard.Clock.
func (c *Clock) AfterFunc(d time.Duration, f func()) func() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &timer{at: c.now.Add(d), f: f}
	c.timers = append(c.timers, t)
	c.signal()
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := len(c.timers)
		c.timers = slices.DeleteFunc(c.timers, func(x *timer) bool { return x == t })
		return len(c.timers) < n
	}
}

// Advance moves the clock d on and fires every timer that falls due.
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var due []*timer
	c.timers = slices.DeleteFunc(c.timers, func(t *timer) bool {
		if t.at.After(c.now) {
			return false
		}
		due = append(due, t)
		return true
	})
	c.signal()
	c.mu.Unlock()
	slices.SortStableFunc(due, func(a, b *timer) int { return a.at.Compare(b.at) })
	for _, t := range due {
		t.f()
	}
}

func (c *Clock) signal() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// Wait blocks until a timer is armed that falls due d from now with
// match(d), and returns the earliest such d; ok is false if abort closes
// first.
func (c *Clock) Wait(match func(d time.Duration) bool, abort <-chan struct{}) (d time.Duration, ok bool) {
	for {
		c.mu.Lock()
		for _, t := range c.timers {
			if off := t.at.Sub(c.now); match(off) && (!ok || off < d) {
				d, ok = off, true
			}
		}
		changed := c.changed
		c.mu.Unlock()
		if ok {
			return d, true
		}
		select {
		case <-changed:
		case <-abort:
			return 0, false
		}
	}
}

// Await blocks until the code under test has armed a timer that falls
// due exactly d from now: it is about to block on it.
func (c *Clock) Await(t testing.TB, d time.Duration) {
	t.Helper()
	abort := make(chan struct{})
	guard := time.AfterFunc(hangGuard, func() { close(abort) })
	defer guard.Stop()
	if _, ok := c.Wait(func(x time.Duration) bool { return x == d }, abort); !ok {
		t.Fatalf("clocktest: no timer armed %v ahead", d)
	}
}

// Step awaits a timer d ahead, then advances d: the wait it stands for
// has passed.
func (c *Clock) Step(t testing.TB, d time.Duration) {
	t.Helper()
	c.Await(t, d)
	c.Advance(d)
}

// Ticks drives a loop that re-arms an every-long timer after each tick
// (a poller) through n ticks, then awaits the re-arm after the last: on
// return, the n-th tick has been handled.
func (c *Clock) Ticks(t testing.TB, every time.Duration, n int) {
	t.Helper()
	for range n {
		c.Step(t, every)
	}
	c.Await(t, every)
}

// Drive advances the clock, from a goroutine, to every timer that is
// armed to fall due less than below ahead — backoffs and pacing the test
// does not single out — until the test ends.
func (c *Clock) Drive(t testing.TB, below time.Duration) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			d, ok := c.Wait(func(x time.Duration) bool { return x < below }, stop)
			if !ok {
				return
			}
			c.Advance(d)
		}
	}()
	t.Cleanup(func() {
		close(stop)
		<-done
	})
}
