// Unified memory governor.
//
// Before this layer, three uncoordinated limits bounded the pipeline's
// memory: arena buffers grew with source burstiness, shard queues with
// their configured depth, and reassembly buffers with out-of-order
// traffic — each individually capped, but their *sum* unbounded. The
// governor is the single accountant: components register a usage
// callback (a few atomic loads each), the governor aggregates them
// against one byte ceiling, and two consumers read the result:
//
//   - The engine's degradation ladder reads Pressure() (usage/limit)
//     as its one signal: memory pressure, and nothing else, steps the
//     engine through soft/hard degradation.
//   - Producers call Admit before leasing payload buffers; Admit blocks
//     while usage sits above the pause threshold, so sources stop
//     pulling bytes off the wire before the allocator can OOM the
//     process. Pauses are counted and timed.
package guard

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"matchfilter/internal/telemetry"
)

// pauseAt is the fraction of the limit at which Admit starts blocking
// producers: leasing pauses before the ceiling so in-flight work can
// land under it. admitPoll is how often a blocked Admit re-checks usage.
const (
	pauseAt   = 0.9
	admitPoll = 2 * time.Millisecond
)

// component is one registered usage source.
type component struct {
	name string
	fn   func() int64
}

// Governor aggregates registered usage callbacks against one ceiling.
// All methods are safe for concurrent use; a nil *Governor is a valid
// no-op (Admit admits, Pressure is zero), so callers need not branch.
type Governor struct {
	limit int64

	mu    sync.Mutex // guards registration
	comps atomic.Pointer[[]component]
	rows  *telemetry.RowSet[GovernorStats] // nil without a registry

	pauses      atomic.Int64
	pausedNanos atomic.Int64
}

// NewGovernor creates a governor over a ceiling of limit bytes (> 0);
// reg, when non-nil, serves it as the mfa_guard_mem_* family. Register
// components before exposing it to producers.
func NewGovernor(limit int64, reg *telemetry.Registry) *Governor {
	if limit <= 0 {
		panic("guard: NewGovernor needs a positive limit")
	}
	g := &Governor{limit: limit}
	g.comps.Store(&[]component{})
	if reg != nil {
		g.rows = telemetry.Rows(reg, g.Stats, governorRows)
	}
	return g
}

// Register adds one usage component — at boot or while serving (a tenant
// created at run time) — and its component=<name> series. fn must be cheap
// and safe to call from any goroutine (atomic loads, not table walks).
func (g *Governor) Register(name string, fn func() int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	next := append(append([]component{}, *g.comps.Load()...), component{name, fn})
	g.comps.Store(&next)
	if g.rows != nil {
		g.rows.Add([]telemetry.Row[GovernorStats]{telemetry.GaugeRow("mfa_guard_mem_component_bytes",
			"Bytes accounted by one governor component.",
			func(s *GovernorStats) float64 { return float64(s.Components[name]) })},
			telemetry.L("component", name))
	}
}

// Limit reports the configured ceiling in bytes.
func (g *Governor) Limit() int64 {
	if g == nil {
		return 0
	}
	return g.limit
}

// Usage sums the registered components' current bytes.
func (g *Governor) Usage() int64 {
	if g == nil {
		return 0
	}
	var total int64
	for _, c := range *g.comps.Load() {
		total += c.fn()
	}
	return total
}

// Pressure is usage over limit — the signal the degradation ladder
// compares with its watermarks. It may exceed 1.0 transiently.
func (g *Governor) Pressure() float64 {
	if g == nil {
		return 0
	}
	p := float64(g.Usage()) / float64(g.limit)
	if p < 0 {
		p = 0
	}
	return p
}

// overPause reports whether producers should be held at the gate.
func (g *Governor) overPause() bool {
	return float64(g.Usage()) >= pauseAt*float64(g.limit)
}

// Admit blocks while usage sits above the pause threshold, re-checking
// every admitPoll of clock, and returns when the producer may lease
// again. It returns ctx.Err() if the context ends first — the producer is
// shutting down and should stop producing rather than wait out the
// pressure.
func (g *Governor) Admit(ctx context.Context, clock Clock) error {
	if g == nil || !g.overPause() {
		return nil
	}
	g.pauses.Add(1)
	t0 := clock.Now()
	defer func() { g.pausedNanos.Add(int64(clock.Now().Sub(t0))) }()
	for {
		tick, stop := After(clock, admitPoll)
		select {
		case <-ctx.Done():
			stop()
			return ctx.Err()
		case <-tick:
			if !g.overPause() {
				return nil
			}
		}
	}
}

// GovernorStats is a point-in-time accounting snapshot.
type GovernorStats struct {
	LimitBytes int64
	UsageBytes int64
	Pressure   float64
	// Components maps each registered component to its current bytes.
	Components map[string]int64
	// Pauses counts Admit calls that had to block; PausedNanos is the
	// cumulative time producers spent blocked.
	Pauses      int64
	PausedNanos int64
}

// Stats snapshots the governor.
func (g *Governor) Stats() GovernorStats {
	if g == nil {
		return GovernorStats{}
	}
	st := GovernorStats{
		LimitBytes:  g.limit,
		Pauses:      g.pauses.Load(),
		PausedNanos: g.pausedNanos.Load(),
		Components:  make(map[string]int64),
	}
	for _, c := range *g.comps.Load() {
		n := c.fn()
		st.Components[c.name] = n
		st.UsageBytes += n
	}
	st.Pressure = float64(st.UsageBytes) / float64(st.LimitBytes)
	return st
}

// governorRows serves GovernorStats; Components is the component=<name>
// family Register adds to.
var governorRows = []telemetry.Row[GovernorStats]{
	telemetry.GaugeRow("mfa_guard_mem_limit_bytes", "Unified memory ceiling (-max-memory).", func(s *GovernorStats) float64 { return float64(s.LimitBytes) }),
	telemetry.GaugeRow("mfa_guard_mem_usage_bytes", "Bytes currently accounted against the memory ceiling, all components.", func(s *GovernorStats) float64 { return float64(s.UsageBytes) }),
	telemetry.GaugeRow("mfa_guard_mem_pressure", "Governor pressure: usage over limit (may transiently exceed 1).", func(s *GovernorStats) float64 { return s.Pressure }),
	telemetry.CounterRow("mfa_guard_mem_pauses_total", "Producer lease requests that blocked at the admission gate.", func(s *GovernorStats) float64 { return float64(s.Pauses) }),
	telemetry.CounterRow("mfa_guard_mem_paused_seconds_total", "Cumulative time producers spent paused by the admission gate.", func(s *GovernorStats) float64 { return time.Duration(s.PausedNanos).Seconds() }),
}
