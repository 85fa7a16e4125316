// Circuit breaker for restartable dependencies: the one restart policy
// of the input supervisor. It owns the failure budget, the backoff
// between restarts and the open interval, as the classic three-state
// machine:
//
//	closed     normal operation; each failure waits out a doubling,
//	           capped backoff and counts against a budget. A sustained
//	           healthy run refills the budget and rewinds the backoff.
//	open       the budget is spent; the dependency is left alone for a
//	           doubling, capped interval. What open means is the
//	           caller's: a source that can come back (a capture endpoint
//	           rebooting) is probed later, one that cannot (a file that
//	           no longer parses) is abandoned.
//	half-open  one probe is in flight; success closes the breaker,
//	           failure re-opens it at the next interval.
package guard

import (
	"sync"
	"sync/atomic"
	"time"
)

// BreakerState is the circuit state.
type BreakerState int32

const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String renders the state for /statsz and metrics help text.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// The restart policy, one for every source. FailureBudget failures in a
// row open the breaker; the closed-state backoff starts at backoffBase
// and doubles up to backoffMax; the open interval starts at openBase and
// doubles up to openMax. A run that lasts HealthyAfter refills the budget
// and rewinds both: a source that served for minutes and then hiccuped is
// not crash-looping.
const (
	FailureBudget = 8
	backoffBase   = 100 * time.Millisecond
	backoffMax    = 5 * time.Second
	openBase      = 10 * time.Second
	openMax       = 2 * time.Minute
	HealthyAfter  = 30 * time.Second
)

// Breaker is one circuit. The state field is atomic so observers
// (metrics callbacks, /statsz) read it without taking the mutex the
// transition logic uses; Healthy may fire from a timer goroutine while
// Failure runs on the supervisor goroutine.
type Breaker struct {
	mu       sync.Mutex
	failures int
	backoff  time.Duration // next closed-state wait
	interval time.Duration // next open interval

	state  atomic.Int32
	opens  atomic.Int64
	probes atomic.Int64
	resets atomic.Int64
}

// NewBreaker creates a closed breaker.
func NewBreaker() *Breaker { return &Breaker{backoff: backoffBase, interval: openBase} }

// State reports the current circuit state.
func (b *Breaker) State() BreakerState { return BreakerState(b.state.Load()) }

// Opens counts closed/half-open → open transitions.
func (b *Breaker) Opens() int64 { return b.opens.Load() }

// Probes counts open → half-open transitions.
func (b *Breaker) Probes() int64 { return b.probes.Load() }

// Resets counts budget refills earned by sustained healthy runs.
func (b *Breaker) Resets() int64 { return b.resets.Load() }

// Failure records one failed run that lasted ranFor, and returns the
// resulting state and how long the caller must leave the dependency
// alone: the backoff before a plain restart while BreakerClosed, the open
// interval before calling Probe when BreakerOpen. A run that lasted at
// least HealthyAfter first refills the budget and rewinds the backoff.
func (b *Breaker) Failure(ranFor time.Duration) (state BreakerState, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ranFor >= HealthyAfter {
		b.resetLocked()
	}
	b.failures++
	if BreakerState(b.state.Load()) == BreakerHalfOpen || b.failures > FailureBudget {
		wait = b.interval
		b.interval = min(2*b.interval, openMax)
		b.backoff = backoffBase // the probe's own failures start over
		b.state.Store(int32(BreakerOpen))
		b.opens.Add(1)
		return BreakerOpen, wait
	}
	wait = b.backoff
	b.backoff = min(2*b.backoff, backoffMax)
	return BreakerClosed, wait
}

// Probe moves an open breaker to half-open: the caller is about to try
// the dependency once. No-op in other states.
func (b *Breaker) Probe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if BreakerState(b.state.Load()) == BreakerOpen {
		b.state.Store(int32(BreakerHalfOpen))
		b.probes.Add(1)
	}
}

// Healthy records that the current run has lasted HealthyAfter without
// failing, or ended cleanly: the breaker closes and the budget refills,
// so a later crash starts from a full budget. Safe to call from a timer
// goroutine.
func (b *Breaker) Healthy() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.resetLocked()
}

func (b *Breaker) resetLocked() {
	if BreakerState(b.state.Load()) != BreakerClosed || b.failures > 0 {
		b.resets.Add(1)
	}
	b.state.Store(int32(BreakerClosed))
	b.failures = 0
	b.backoff = backoffBase
	b.interval = openBase
}
