// Deadline-bounded shutdown.
//
// Close drains every queue before returning — the right default for
// batch scans, but a liveness hazard for a daemon: one wedged shard (a
// matcher stuck in user code, a poisoned flow looping) would hang the
// process forever on exit. CloseContext bounds the drain with a
// context; on expiry it returns a ShutdownError that wraps ctx.Err()
// and carries exact per-shard drain progress, so the operator's logs
// say *which* shard wedged and how much work it still held.
package engine

import (
	"context"
	"fmt"
	"strings"
)

// ShardDrain is one shard's shutdown progress.
type ShardDrain struct {
	Shard     int   // shard index
	Queued    int   // segments still waiting in the shard's queue
	Processed int64 // segments the shard has consumed (scanned or drop-counted)
	Done      bool  // the shard goroutine has exited
}

// ShutdownError reports an incomplete drain: the deadline expired while
// at least one shard still held queued segments. It wraps the context's
// error, so errors.Is(err, context.DeadlineExceeded) works.
type ShutdownError struct {
	Cause    error
	Progress []ShardDrain
}

func (err *ShutdownError) Error() string {
	done := 0
	var stuck []string
	for _, d := range err.Progress {
		if d.Done {
			done++
		} else {
			stuck = append(stuck, fmt.Sprintf("s%d queued=%d processed=%d", d.Shard, d.Queued, d.Processed))
		}
	}
	return fmt.Sprintf("engine: shutdown incomplete (%v): %d/%d shards drained; %s",
		err.Cause, done, len(err.Progress), strings.Join(stuck, ", "))
}

func (err *ShutdownError) Unwrap() error { return err.Cause }

// Close stops intake, drains every shard's queue, and waits for the
// shard goroutines to exit. After Close, Stats is exact and Handle calls
// return ErrClosed. Close is idempotent and safe against concurrent
// Handle calls (they observe ErrClosed).
func (e *Engine) Close() error { return e.CloseContext(context.Background()) }

// CloseContext is Close with a deadline: it stops intake, then waits for
// the shards to drain until ctx expires. On expiry it returns a
// *ShutdownError wrapping ctx.Err() with per-shard drain progress; the
// shards keep draining in the background, and CloseContext may be called
// again (with a fresh context) to keep waiting.
func (e *Engine) CloseContext(ctx context.Context) error {
	e.closeOnce.Do(func() {
		// Unblock backpressure dispatchers first: one parked against a
		// full (possibly stalled) shard queue selects on closing.
		close(e.closing)
		if e.dog != nil {
			// Stop the watchdog before the drain: a shard slow to chew
			// through its final backlog is shutting down, not stalling,
			// and must not be benched mid-drain. Stop only waits for the
			// poll goroutine, which never blocks.
			e.dog.Stop()
		}
		for _, s := range e.shards {
			s.in.Close()
		}
		go func() {
			e.wg.Wait()
			close(e.drained)
		}()
	})
	// Prefer "drained" when both are ready, so an already-expired
	// context still reports success if the drain in fact finished.
	select {
	case <-e.drained:
		return nil
	default:
	}
	select {
	case <-e.drained:
		return nil
	case <-ctx.Done():
		return &ShutdownError{Cause: ctx.Err(), Progress: e.DrainProgress()}
	}
}

// DrainProgress reports each shard's shutdown progress. It is meaningful
// at any time but primarily read after a CloseContext deadline expired.
func (e *Engine) DrainProgress() []ShardDrain {
	out := make([]ShardDrain, len(e.shards))
	for i, s := range e.shards {
		out[i] = ShardDrain{
			Shard:     i,
			Queued:    s.queued(),
			Processed: s.processed.Load(),
			Done:      s.exited.Load(),
		}
	}
	return out
}
