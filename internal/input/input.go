// Package input is the pluggable ingestion pipeline in front of the
// sharded engine: a heka-style plugin runner where N independent
// traffic Sources — capture files, directory spools, socket listeners,
// live interfaces — run concurrently under one Supervisor and fan into
// the engine's dispatch path.
//
// The shape (DESIGN.md §15):
//
//   - A Source is one traffic producer. Its Run method pumps frames or
//     pre-decoded segments into the Emitter the supervisor hands it and
//     returns when the source is exhausted (finite sources: a capture
//     file) or its context is cancelled (live sources: sockets, spools,
//     interfaces).
//   - The Supervisor runs every source on its own goroutine with a
//     bounded handoff queue (internal/burst) into the sink, so one slow
//     or bursty source backpressures against its own queue without
//     starving the others; what queues up while the sink is busy crosses
//     as one burst. A source that fails is restarted with exponential backoff
//     under a restart budget (the crash-budget idiom from the shard
//     supervisor); a source that keeps failing is abandoned — counted
//     and reported — while the rest keep serving.
//   - Malformed-input policy is centralized here, not per source: every
//     parse failure reports through Emitter.Malformed, which counts it
//     in lenient mode and converts it into a *StrictError in strict
//     mode, aborting the whole pipeline with the exit-code-2 semantics
//     cmd/mfaserve documents.
//   - Payload buffers are leased from an Arena that carves them out of
//     pooled per-class slabs and returned by the engine after the scan
//     (pcap.Owner), so multi-source fan-in does not multiply steady-state
//     allocations: the pipeline's hot path recycles a small working set
//     of slabs.
//
// Every source gets per-source telemetry (segments, bytes, skips,
// malformed, restarts, queue depth) on the shared registry and a row in
// the supervisor's Stats, which cmd/mfaserve serves under /statsz.
package input

import (
	"context"
	"fmt"

	"matchfilter/internal/burst"
	"matchfilter/internal/pcap"
)

// Source is one traffic producer managed by a Supervisor.
//
// Run pumps traffic into em until ctx is done or the source is
// exhausted. A nil return means the source completed cleanly (a finite
// capture reached EOF, or a live source observed ctx cancellation); an
// error return invokes the supervisor's restart policy — transient
// errors restart the source with backoff, errors wrapped by Permanent
// and *StrictError do not. Run is called from a dedicated goroutine and
// may block; it must return promptly once ctx is cancelled. On restart,
// Run is called again from scratch on the same Source value.
type Source interface {
	// Describe returns static metadata: the telemetry label, the source
	// kind, and whether the source is finite (completes on its own).
	Describe() Description
	Run(ctx context.Context, em *Emitter) error
}

// Description is a source's static metadata.
type Description struct {
	// Name uniquely identifies this source instance; it becomes the
	// "source" telemetry label and the Stats row key. The supervisor
	// de-duplicates collisions by suffixing an ordinal.
	Name string
	// Kind is the plugin family: "pcap", "spool", "tcp", "udp",
	// "afpacket", "mem", ...
	Kind string
	// Detail is a human hint (path, address, interface).
	Detail string
	// Finite marks sources that complete on their own. The supervisor's
	// Run returns once every finite source is done when no infinite
	// sources are registered; infinite sources run until ctx cancels.
	Finite bool
}

// Sink is where the pipeline delivers decoded segments — in production
// internal/engine's *Engine. The sink takes ownership of owner on every
// call and must release it exactly once, scanned or dropped. A non-nil
// error is terminal: the sink has shut down and the pipeline stops.
type Sink interface {
	HandleSegmentOwned(seg pcap.Segment, owner pcap.Owner) error
}

// BurstSink is the optional upgrade of Sink that internal/engine's
// *Engine implements: the pump hands it everything it swapped out of a
// source's queue in one call instead of one call per segment. The sink
// owns every item's lease from the call on, error or not; the slice
// itself stays the caller's and is reused after the call returns.
type BurstSink interface {
	Sink
	HandleBurst(items []burst.Item) error
}

// StrictError is the typed abort of strict mode: the first malformed
// frame or record anywhere in the pipeline, attributed to its source.
// cmd/mfaserve maps it to exit code 2.
type StrictError struct {
	Source string
	Err    error
}

func (e *StrictError) Error() string {
	return fmt.Sprintf("input: strict: source %s: %v", e.Source, e.Err)
}

func (e *StrictError) Unwrap() error { return e.Err }

// permanentError marks a source failure that restarting cannot heal (a
// damaged capture file, an unsupported platform).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so the supervisor abandons the source immediately
// instead of restarting it with backoff.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}
