// Stall watchdog: detects workers stuck inside one unit of work.
//
// A shard wedged mid-scan — a matcher looping in user code, a decorator
// blocked on a gate — is invisible from the outside until its queue
// backs up and the backpressure reaches producers. The watchdog makes
// the stall itself observable: each monitored target publishes a
// heartbeat of two atomics (a monotonically increasing step sequence
// and the start of the step in progress on the watchdog's Clock, zero
// when idle), and one goroutine polls every heartbeat against two
// thresholds:
//
//	deadline    the step is a *stall*: Stall(seq) fires once. The
//	            target is expected to remember the flagged sequence and
//	            quarantine the offending work when the step returns.
//	4×deadline  the step is still stuck (wedgeAfter deadlines in):
//	            Wedge(seq) fires once. The target is expected to fail over
//	            — mark itself unhealthy, shed its traffic with accounting —
//	            because the step may never return.
//
// The protocol is race-clean without locks: the writer's order is
// start=0 (step done), seq=n+1, start=now (step begins), so a reader
// that observes seq=n+1 can only read start as 0 or the new timestamp,
// never a stale one — a fresh step is never blamed for an old step's
// age. Callbacks run on the watchdog goroutine and must not block.
package guard

import (
	"sync"
	"sync/atomic"
	"time"
)

// Target is one monitored worker.
type Target interface {
	// Beat reports the worker's heartbeat: the sequence number of the
	// step in progress and its start time in Unix nanoseconds, read from
	// the watchdog's Clock. A zero start means the worker is idle
	// between steps.
	Beat() (seq, startNano int64)
	// Stall is called at most once per stuck step, when the step has
	// run past the deadline. seq identifies the step.
	Stall(seq int64)
	// Wedge is called at most once per stuck step, when the step has
	// run past wedgeAfter deadlines and the worker must be presumed lost.
	Wedge(seq int64)
}

// wedgeAfter is the escalation threshold, in stall deadlines.
const wedgeAfter = 4

// targetState is the watchdog's memory of one target between polls.
type targetState struct {
	seq     int64 // step the flags below refer to
	stalled bool
	wedged  bool
}

// Watchdog polls a set of Targets from one goroutine.
type Watchdog struct {
	clock    Clock
	deadline time.Duration
	targets  []Target
	states   []targetState

	fires  atomic.Int64
	wedges atomic.Int64

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewWatchdog starts a watchdog over targets, polling on clock — the
// clock their heartbeats are stamped with — against a stall deadline.
// Stop must be called to release its goroutine. A zero deadline panics:
// an unarmed watchdog is a configuration bug, not a policy.
func NewWatchdog(clock Clock, deadline time.Duration, targets ...Target) *Watchdog {
	if deadline <= 0 {
		panic("guard: NewWatchdog needs a positive deadline")
	}
	w := &Watchdog{
		clock:    clock,
		deadline: deadline,
		targets:  targets,
		states:   make([]targetState, len(targets)),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go w.run()
	return w
}

// Stop terminates the polling goroutine. Idempotent; returns once the
// goroutine has exited, so callers can assert goroutine hygiene.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

// Fires reports the stalls detected so far (one per stuck step).
func (w *Watchdog) Fires() int64 { return w.fires.Load() }

// Wedges reports the escalations so far (stuck steps past wedgeAfter
// deadlines).
func (w *Watchdog) Wedges() int64 { return w.wedges.Load() }

func (w *Watchdog) run() {
	defer close(w.done)
	// Sample heartbeats every quarter deadline, floored at one
	// millisecond: detection latency is at most the deadline plus one
	// tick.
	every := max(w.deadline/4, time.Millisecond)
	for {
		tick, stop := After(w.clock, every)
		select {
		case <-w.stop:
			stop()
			return
		case <-tick:
			w.poll(w.clock.Now().UnixNano())
		}
	}
}

func (w *Watchdog) poll(now int64) {
	for i, t := range w.targets {
		seq, start := t.Beat()
		ts := &w.states[i]
		if seq != ts.seq {
			// A new step began since the last poll: any stall flags refer
			// to a step that already completed.
			ts.seq, ts.stalled, ts.wedged = seq, false, false
		}
		if start == 0 {
			continue // idle
		}
		age := time.Duration(now - start)
		if age >= w.deadline && !ts.stalled {
			ts.stalled = true
			w.fires.Add(1)
			t.Stall(seq)
		}
		if age >= wedgeAfter*w.deadline && !ts.wedged {
			ts.wedged = true
			w.wedges.Add(1)
			t.Wedge(seq)
		}
	}
}
