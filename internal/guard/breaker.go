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

// BreakerConfig tunes one breaker.
type BreakerConfig struct {
	// FailureBudget is how many failures the closed state tolerates
	// before opening. 0 means 8.
	FailureBudget int
	// BackoffBase is the wait after the first closed-state failure; each
	// further one doubles it up to BackoffMax. 0 means 100ms / 5s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// OpenBase is the first open interval; each consecutive open
	// doubles it up to OpenMax. 0 means 10s (OpenBase) / 2m (OpenMax).
	OpenBase time.Duration
	OpenMax  time.Duration
	// HealthyAfter is how long a run must last for the failure budget
	// to refill and the backoff to rewind — a source that served for
	// minutes and then hiccuped is not crash-looping. 0 means 30s.
	HealthyAfter time.Duration
}

func (c *BreakerConfig) setDefaults() {
	if c.FailureBudget <= 0 {
		c.FailureBudget = 8
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.OpenBase <= 0 {
		c.OpenBase = 10 * time.Second
	}
	if c.OpenMax <= 0 {
		c.OpenMax = 2 * time.Minute
	}
	if c.OpenMax < c.OpenBase {
		c.OpenMax = c.OpenBase
	}
	if c.HealthyAfter <= 0 {
		c.HealthyAfter = 30 * time.Second
	}
}

// Breaker is one circuit. The state field is atomic so observers
// (metrics callbacks, /statsz) read it without taking the mutex the
// transition logic uses; Healthy may fire from a timer goroutine while
// Failure runs on the supervisor goroutine.
type Breaker struct {
	cfg BreakerConfig

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
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg.setDefaults()
	return &Breaker{cfg: cfg, backoff: cfg.BackoffBase, interval: cfg.OpenBase}
}

// Config reports the breaker's configuration, defaults applied.
func (b *Breaker) Config() BreakerConfig { return b.cfg }

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
	if ranFor >= b.cfg.HealthyAfter {
		b.resetLocked()
	}
	b.failures++
	if BreakerState(b.state.Load()) == BreakerHalfOpen || b.failures > b.cfg.FailureBudget {
		wait = b.interval
		b.interval = min(2*b.interval, b.cfg.OpenMax)
		b.backoff = b.cfg.BackoffBase // the probe's own failures start over
		b.state.Store(int32(BreakerOpen))
		b.opens.Add(1)
		return BreakerOpen, wait
	}
	wait = b.backoff
	b.backoff = min(2*b.backoff, b.cfg.BackoffMax)
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
	b.backoff = b.cfg.BackoffBase
	b.interval = b.cfg.OpenBase
}
