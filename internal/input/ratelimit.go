// Per-source replay rate limiting.
//
// Replaying a capture file at wire speed is the wrong tool for two jobs
// this daemon is actually used for: soak-testing a rule set against a
// recorded day of traffic (the replay should take minutes, not
// milliseconds, so memory pressure and idle sweeps behave as they would
// live), and driving a staging instance at a controlled offered load. A
// source created with SourceOptions.RateBytesPerSec paces its payload
// bytes through a token bucket: Emitter.Segment debits the bucket and
// sleeps off any debt before enqueueing, so the handoff queue sees
// traffic at the configured rate regardless of how fast the file reads.
//
// The bucket allows a burst of one bucketWindow's worth of bytes, so
// pacing wakes at a granularity the scheduler can honor instead of
// sleeping per-segment at microsecond scale.
package input

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"matchfilter/internal/guard"
)

// bucketWindow is the burst the token bucket tolerates, expressed as
// time at the configured rate. 10ms keeps bursts small (1MB at 100MB/s)
// while staying far above timer granularity.
const bucketWindow = 10 * time.Millisecond

// rateLimiter is a token bucket over payload bytes. One per source;
// guarded by a mutex because socket sources emit from per-connection
// goroutines.
type rateLimiter struct {
	clock  guard.Clock
	mu     sync.Mutex
	rate   float64 // tokens (bytes) per second
	burst  float64 // bucket capacity
	tokens float64 // may go negative: accumulated debt to sleep off
	last   time.Time

	pausedNanos atomic.Int64 // cumulative time spent sleeping (SourceStats.RatePausedNanos)
}

func newRateLimiter(bytesPerSec int64, clock guard.Clock) *rateLimiter {
	r := float64(bytesPerSec)
	burst := r * bucketWindow.Seconds()
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{clock: clock, rate: r, burst: burst, tokens: burst}
}

// wait debits n bytes and blocks until the bucket is non-negative again
// (or ctx is cancelled, returning its error). Segments larger than the
// burst still pass — they just sleep proportionally longer.
func (l *rateLimiter) wait(ctx context.Context, n int) error {
	l.mu.Lock()
	now := l.clock.Now()
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	l.last = now
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.tokens -= float64(n)
	debt := -l.tokens
	l.mu.Unlock()
	if debt <= 0 {
		return nil
	}
	d := time.Duration(debt / l.rate * float64(time.Second))
	wake, stop := guard.After(l.clock, d)
	select {
	case <-wake:
		l.pausedNanos.Add(int64(d))
		return nil
	case <-ctx.Done():
		stop()
		return ctx.Err()
	}
}
