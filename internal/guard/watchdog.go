// Stall watchdog: detects workers stuck inside one unit of work.
//
// A shard wedged mid-scan — a matcher looping in user code, a decorator
// blocked on a gate — is invisible from the outside until its queue
// backs up and the backpressure reaches producers. The watchdog makes
// the stall itself observable: each monitored target publishes a
// heartbeat of two atomics (a monotonically increasing step sequence
// and the wall-clock start of the step in progress, zero when idle),
// and one goroutine polls every heartbeat against two thresholds:
//
//	Deadline    the step is a *stall*: Stall(seq) fires once. The
//	            target is expected to remember the flagged sequence and
//	            quarantine the offending work when the step returns.
//	WedgeAfter  the step is still stuck: Wedge(seq) fires once. The
//	            target is expected to fail over — mark itself unhealthy,
//	            shed its traffic with accounting — because the step may
//	            never return.
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
	// step in progress and its start time in Unix nanoseconds. A zero
	// start means the worker is idle between steps.
	Beat() (seq, startNano int64)
	// Stall is called at most once per stuck step, when the step has
	// run past Deadline. seq identifies the step.
	Stall(seq int64)
	// Wedge is called at most once per stuck step, when the step has
	// run past WedgeAfter and the worker must be presumed lost.
	Wedge(seq int64)
}

// WatchdogConfig tunes the detector.
type WatchdogConfig struct {
	// Deadline is the stall threshold for one step. Required (> 0).
	Deadline time.Duration
	// WedgeAfter is the escalation threshold. 0 means 4×Deadline.
	WedgeAfter time.Duration
}

func (c *WatchdogConfig) setDefaults() {
	if c.WedgeAfter <= 0 {
		c.WedgeAfter = 4 * c.Deadline
	}
}

// targetState is the watchdog's memory of one target between polls.
type targetState struct {
	seq     int64 // step the flags below refer to
	stalled bool
	wedged  bool
}

// Watchdog polls a set of Targets from one goroutine.
type Watchdog struct {
	cfg     WatchdogConfig
	targets []Target
	states  []targetState

	fires  atomic.Int64
	wedges atomic.Int64

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewWatchdog starts a watchdog over targets. Stop must be called to
// release its goroutine. A zero Deadline panics: an unarmed watchdog is
// a configuration bug, not a policy.
func NewWatchdog(cfg WatchdogConfig, targets ...Target) *Watchdog {
	if cfg.Deadline <= 0 {
		panic("guard: WatchdogConfig.Deadline is required")
	}
	cfg.setDefaults()
	w := &Watchdog{
		cfg:     cfg,
		targets: targets,
		states:  make([]targetState, len(targets)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
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

// Wedges reports the escalations so far (stuck steps past WedgeAfter).
func (w *Watchdog) Wedges() int64 { return w.wedges.Load() }

func (w *Watchdog) run() {
	defer close(w.done)
	// Sample heartbeats every quarter deadline, floored at one
	// millisecond: detection latency is at most Deadline plus one tick.
	tick := time.NewTicker(max(w.cfg.Deadline/4, time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
			w.poll(time.Now().UnixNano())
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
		if age >= w.cfg.Deadline && !ts.stalled {
			ts.stalled = true
			w.fires.Add(1)
			t.Stall(seq)
		}
		if age >= w.cfg.WedgeAfter && !ts.wedged {
			ts.wedged = true
			w.wedges.Add(1)
			t.Wedge(seq)
		}
	}
}
