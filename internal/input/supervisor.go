// Supervisor: the plugin runner. One goroutine pair per source — the
// source's Run producing into a bounded handoff queue, and a pump
// swapping out whatever that queue holds and handing it to the sink as
// one burst — plus restart supervision under one guard.Breaker policy and
// centralized strict/lenient malformed-input policy. SourceStats and
// ArenaStats are the listings of the pipeline's counters: /statsz serves
// them as they are, /metrics through the row tables below.
package input

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"matchfilter/internal/burst"
	"matchfilter/internal/guard"
	"matchfilter/internal/pcap"
	"matchfilter/internal/telemetry"
)

// Config sizes the pipeline.
type Config struct {
	// Sink receives every decoded segment. Required.
	Sink Sink
	// Strict aborts the whole pipeline on the first malformed frame or
	// record anywhere (Run returns a *StrictError); the default counts
	// and skips, as a daemon on a hostile wire must.
	Strict bool
	// QueueDepth bounds each source's handoff queue (segments).
	// 0 means 256. A full queue backpressures the producing source
	// without touching the others.
	QueueDepth int
	// Governor, when non-nil, gates buffer leasing against the unified
	// memory ceiling: Emitter.Lease blocks while governed usage sits
	// above the governor's pause threshold, so sources stop pulling
	// bytes off the wire before the arena can OOM the process.
	Governor *guard.Governor
	// Metrics, when non-nil, receives per-source series (segments,
	// bytes, skips, malformed, restarts, queue depth/capacity, state)
	// labeled source=<name>, plus the arena's lease accounting.
	Metrics *telemetry.Registry
	// Arena overrides the buffer arena; nil allocates a private one.
	// Share one arena across supervisors to share the buffer pool.
	Arena *Arena
	// Tagger, when non-nil, classifies untagged flows to a tenant index
	// at ingest (tenant.Registry.Tag is the intended implementation). It
	// runs once per emitted segment on keys whose Tenant is still 0 — a
	// per-source binding (SourceOptions.Tenant) wins over it. Must be
	// safe for concurrent use and lock-free cheap.
	Tagger func(pcap.FlowKey) uint32
	// Logf receives supervision events (restarts, abandonments); nil
	// logs to stderr.
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Arena == nil {
		c.Arena = &Arena{}
	}
	if c.Logf == nil {
		c.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
}

// SourceState is a source's lifecycle position.
type SourceState int32

const (
	// StatePending: registered, Run not yet started.
	StatePending SourceState = iota
	// StateRunning: the source's Run is active.
	StateRunning
	// StateBackoff: between a failure and its restart.
	StateBackoff
	// StateDone: completed cleanly (finite source EOF, or cancelled).
	StateDone
	// StateFailed: abandoned — a finite source's breaker opened (restart
	// budget exhausted), permanent error, or strict abort.
	StateFailed
	// StateOpen: an infinite source's circuit breaker is open — the
	// source is left alone for a capped, doubling interval before a
	// half-open probe.
	StateOpen
	// StateHalfOpen: one probe run is in flight; success closes the
	// breaker, failure re-opens it.
	StateHalfOpen
)

func (s SourceState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateRunning:
		return "running"
	case StateBackoff:
		return "backoff"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("SourceState(%d)", int32(s))
	}
}

// SourceOptions carries per-source ingest policy, set at registration.
type SourceOptions struct {
	// Tenant tags every segment this source emits with a tenant index
	// (tenant.Registry indexes; 0 means untagged — the default rule
	// set, or fall through to Config.Tagger). Use it when a source
	// carries exactly one tenant's traffic.
	Tenant uint32
	// RateBytesPerSec paces the source's payload bytes through a token
	// bucket (ratelimit.go); 0 means unpaced. Meant for capture replay
	// ('pcap:file.pcap?rate=100M').
	RateBytesPerSec int64
}

// sourceState is the supervisor's per-source record.
type sourceState struct {
	id   int
	src  Source
	desc Description
	opts SourceOptions
	rl   *rateLimiter // non-nil iff opts.RateBytesPerSec > 0
	q    *burst.Queue
	// burstHist, when non-nil, observes the size of every burst the pump
	// hands to the sink: all ones on a quiet source, up to burst.Max
	// where the sink is the bottleneck.
	burstHist *telemetry.Histogram
	// br is the source's restart policy. Only an infinite source's is on
	// the admin surface: a finite one that opens it is abandoned (probing
	// a consumed file forever would just hold Run open after the
	// pipeline's work is done), which its state already says.
	br *guard.Breaker

	segments  atomic.Int64 // segments accepted by the sink
	bytes     atomic.Int64 // payload bytes of those segments
	skips     atomic.Int64 // non-TCP frames skipped
	malformed atomic.Int64 // parse failures counted (lenient mode)
	restarts  atomic.Int64
	state     atomic.Int32
	// Datagram delivery accounting, maintained by sources that can see
	// sequencing (udp:addr?seq) or kernel drops (SO_RXQ_OVFL): gaps are
	// datagrams the sender numbered but we never saw; reorders are
	// datagrams that arrived behind a higher number.
	gaps        atomic.Int64
	reorders    atomic.Int64
	kernelDrops atomic.Int64

	errMu   sync.Mutex
	lastErr string
}

func (st *sourceState) setErr(err error) {
	st.errMu.Lock()
	st.lastErr = err.Error()
	st.errMu.Unlock()
}

func (st *sourceState) lastError() string {
	st.errMu.Lock()
	defer st.errMu.Unlock()
	return st.lastErr
}

// clock is the pipeline's time source (guard.Clock): run timing, health
// timer, restart waits, admission re-checks, replay pacing and the spool
// poll. Only export_test.go rebinds it.
var clock = guard.Runtime

// Supervisor runs registered sources concurrently into one sink.
type Supervisor struct {
	cfg     Config
	clock   guard.Clock
	sources []*sourceState
	names   map[string]int // dedup: name -> count

	started atomic.Bool
	cancel  context.CancelFunc

	fatalMu  sync.Mutex
	fatalErr error
}

// NewSupervisor creates a supervisor; register sources with Add, then
// call Run once.
func NewSupervisor(cfg Config) *Supervisor {
	if cfg.Sink == nil {
		panic("input: Config.Sink is required")
	}
	cfg.setDefaults()
	s := &Supervisor{cfg: cfg, clock: clock, names: make(map[string]int)}
	if cfg.Metrics != nil {
		telemetry.Rows(cfg.Metrics, cfg.Arena.Stats, arenaRows)
	}
	return s
}

// arenaRows serves ArenaStats. BytesLeased has no series of its own: it
// is the memory governor's "arena" component.
var arenaRows = []telemetry.Row[ArenaStats]{
	telemetry.CounterRow("mfa_input_arena_leases_total", "Payload buffers leased from the input arena.", func(a *ArenaStats) float64 { return float64(a.Leases) }),
	telemetry.CounterRow("mfa_input_arena_releases_total", "Leased buffers returned to the input arena (by the engine after scan, or by sources on error paths).", func(a *ArenaStats) float64 { return float64(a.Releases) }),
	telemetry.CounterRow("mfa_input_arena_misses_total", "Fresh allocations behind arena leases (a slab pool miss, or an oversize lease).", func(a *ArenaStats) float64 { return float64(a.Misses) }),
	telemetry.CounterRow("mfa_input_arena_double_release_total", "Release called twice on one lease (a bug upstream, made harmless).", func(a *ArenaStats) float64 { return float64(a.DoubleReleases) }),
}

// sourceRows serves one source's SourceStats, labeled source=<name>;
// rateRows only on a paced source, breakerRows only on an infinite one.
var sourceRows = []telemetry.Row[SourceStats]{
	telemetry.CounterRow("mfa_input_segments_total", "TCP segments this source delivered to the engine.", func(s *SourceStats) float64 { return float64(s.Segments) }),
	telemetry.CounterRow("mfa_input_payload_bytes_total", "Payload bytes this source delivered to the engine.", func(s *SourceStats) float64 { return float64(s.PayloadBytes) }),
	telemetry.CounterRow("mfa_input_skipped_frames_total", "Non-TCP frames this source skipped.", func(s *SourceStats) float64 { return float64(s.SkippedFrames) }),
	telemetry.CounterRow("mfa_input_malformed_total", "Malformed frames/records this source counted and skipped.", func(s *SourceStats) float64 { return float64(s.Malformed) }),
	telemetry.CounterRow("mfa_input_restarts_total", "Times this source was restarted after a transient failure.", func(s *SourceStats) float64 { return float64(s.Restarts) }),
	telemetry.CounterRow("mfa_input_gaps_total", "Sender-numbered datagrams this source never received (udp ?seq mode).", func(s *SourceStats) float64 { return float64(s.Gaps) }),
	telemetry.CounterRow("mfa_input_reorders_total", "Datagrams this source received behind a higher sequence number (udp ?seq mode).", func(s *SourceStats) float64 { return float64(s.Reorders) }),
	telemetry.CounterRow("mfa_input_kernel_drops_total", "Datagrams the kernel dropped on this source's socket buffer (SO_RXQ_OVFL; Linux only).", func(s *SourceStats) float64 { return float64(s.KernelDrops) }),
	telemetry.GaugeRow("mfa_input_queue_depth", "Segments waiting in this source's handoff queue right now.", func(s *SourceStats) float64 { return float64(s.QueueDepth) }),
	telemetry.GaugeRow("mfa_input_queue_capacity", "Handoff queue capacity of this source.", func(s *SourceStats) float64 { return float64(s.QueueCap) }),
	telemetry.GaugeRow("mfa_input_state", "Source lifecycle: 0 pending, 1 running, 2 backoff, 3 done, 4 failed, 5 open, 6 half-open.", func(s *SourceStats) float64 { return float64(s.state) }),
}

var rateRows = []telemetry.Row[SourceStats]{
	telemetry.GaugeRow("mfa_input_rate_bytes_per_sec", "Configured replay rate limit for this source.", func(s *SourceStats) float64 { return float64(s.RateBytesPerSec) }),
	telemetry.CounterRow("mfa_input_rate_paused_seconds_total", "Cumulative time this source slept in its replay rate limiter.", func(s *SourceStats) float64 { return time.Duration(s.RatePausedNanos).Seconds() }),
}

var breakerRows = []telemetry.Row[SourceStats]{
	telemetry.GaugeRow("mfa_guard_breaker_state", "Circuit state of this source's breaker: 0 closed, 1 open, 2 half-open.", func(s *SourceStats) float64 { return float64(s.breaker) }),
	telemetry.CounterRow("mfa_guard_breaker_opens_total", "Times this source's breaker opened (failure budget spent).", func(s *SourceStats) float64 { return float64(s.BreakerOpens) }),
	telemetry.CounterRow("mfa_guard_breaker_probes_total", "Half-open probes attempted for this source.", func(s *SourceStats) float64 { return float64(s.BreakerProbes) }),
}

// Arena returns the buffer arena sources lease from.
func (s *Supervisor) Arena() *Arena { return s.cfg.Arena }

// Add registers a source with default options. It must be called before
// Run. Name collisions are resolved by suffixing an ordinal, so
// telemetry labels stay unique.
func (s *Supervisor) Add(src Source) { s.AddOptions(src, SourceOptions{}) }

// AddOptions registers a source with per-source ingest policy (tenant
// binding, replay rate limit).
func (s *Supervisor) AddOptions(src Source, opts SourceOptions) {
	if s.started.Load() {
		panic("input: Add after Run")
	}
	desc := src.Describe()
	if desc.Name == "" {
		desc.Name = desc.Kind
	}
	if n := s.names[desc.Name]; n > 0 {
		s.names[desc.Name] = n + 1
		desc.Name = fmt.Sprintf("%s#%d", desc.Name, n+1)
	} else {
		s.names[desc.Name] = 1
	}
	st := &sourceState{
		id:   len(s.sources),
		src:  src,
		desc: desc,
		opts: opts,
		q:    burst.NewQueue(s.cfg.QueueDepth),
	}
	if opts.RateBytesPerSec > 0 {
		st.rl = newRateLimiter(opts.RateBytesPerSec, s.clock)
	}
	st.br = guard.NewBreaker()
	s.sources = append(s.sources, st)
	if reg := s.cfg.Metrics; reg != nil {
		label := telemetry.L("source", desc.Name)
		rows := telemetry.Rows(reg, st.stats, sourceRows, label)
		if st.rl != nil {
			rows.Add(rateRows, label)
		}
		if !desc.Finite {
			rows.Add(breakerRows, label)
		}
		st.burstHist = reg.Histogram("mfa_input_burst_segments",
			"Segments per burst this source's pump handed to the engine: 1 on a quiet source, more only under backlog.",
			burstBuckets, label)
	}
}

// Run starts every source and blocks until they have all finished:
// finite sources complete on their own, infinite sources when ctx is
// cancelled. The returned error is nil for a clean stop (including ctx
// cancellation); a *StrictError for a strict-mode abort; or the sink's
// terminal error if the sink shut down underneath the pipeline. Run may
// be called once.
func (s *Supervisor) Run(ctx context.Context) error {
	if s.started.Swap(true) {
		return errors.New("input: Run called twice")
	}
	ctx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	defer cancel()

	var wg sync.WaitGroup
	for _, st := range s.sources {
		wg.Add(2)
		go func(st *sourceState) {
			defer wg.Done()
			s.pump(st)
		}(st)
		go func(st *sourceState) {
			defer wg.Done()
			defer st.q.Close()
			s.supervise(ctx, st)
		}(st)
	}
	wg.Wait()

	s.fatalMu.Lock()
	defer s.fatalMu.Unlock()
	return s.fatalErr
}

// fatal records the first pipeline-terminal error and cancels every
// source.
func (s *Supervisor) fatal(err error) {
	s.fatalMu.Lock()
	if s.fatalErr == nil {
		s.fatalErr = err
	}
	s.fatalMu.Unlock()
	s.cancel()
}

// burstBuckets spans the one-segment burst of a quiet source to a full
// burst.Max.
var burstBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// pump drains one source's handoff queue into the sink, a burst at a
// time: whatever accumulated while the sink was busy with the previous
// one. A sink error is terminal for the whole pipeline: the pump keeps
// draining (so the producer can finish and close the queue) but releases
// instead of delivering.
func (s *Supervisor) pump(st *sourceState) {
	dead := false
	var items []burst.Item
	for {
		var open bool
		if items, open = st.q.Take(items); !open {
			return
		}
		if dead {
			burst.Release(items)
			continue
		}
		var bytes int64
		for i := range items {
			bytes += int64(len(items[i].Seg.Payload))
		}
		if st.burstHist != nil {
			st.burstHist.Observe(float64(len(items)))
		}
		if err := s.deliver(items); err != nil {
			dead = true
			s.fatal(fmt.Errorf("input: sink rejected segment from %s: %w", st.desc.Name, err))
			continue
		}
		st.segments.Add(int64(len(items)))
		st.bytes.Add(bytes)
	}
}

// deliver hands one burst to the sink, which owns every item's lease
// from here on: whole to a BurstSink, segment by segment otherwise.
func (s *Supervisor) deliver(items []burst.Item) error {
	if bs, ok := s.cfg.Sink.(BurstSink); ok {
		return bs.HandleBurst(items)
	}
	for i, it := range items {
		if err := s.cfg.Sink.HandleSegmentOwned(it.Seg, it.Owner); err != nil {
			burst.Release(items[i+1:])
			return err
		}
	}
	return nil
}

// supervise runs one source through its restart policy: the breaker
// says how long to wait after each failure and when the budget is spent.
// An open breaker abandons a finite source and leaves an infinite one
// alone until a half-open probe; a run that lasted HealthyAfter refills
// the budget and rewinds the backoff, so neither transient early failures
// nor isolated hiccups escalate.
func (s *Supervisor) supervise(ctx context.Context, st *sourceState) {
	em := &Emitter{sup: s, st: st, ctx: ctx}
	for {
		if st.br.State() == guard.BreakerHalfOpen {
			st.state.Store(int32(StateHalfOpen))
		} else {
			st.state.Store(int32(StateRunning))
		}
		started := s.clock.Now()
		// If this run survives HealthyAfter, refill the breaker's budget
		// mid-run (a later crash starts from a full budget) and promote a
		// half-open probe to plain running.
		stopHealth := s.clock.AfterFunc(guard.HealthyAfter, func() {
			st.br.Healthy()
			st.state.CompareAndSwap(int32(StateHalfOpen), int32(StateRunning))
		})
		err := runGuarded(ctx, st.src, em)
		ranFor := s.clock.Now().Sub(started)
		stopHealth()
		switch {
		case err == nil:
			st.br.Healthy()
			st.state.Store(int32(StateDone))
			return
		case ctx.Err() != nil:
			// Cancelled mid-run: whatever the source returned, the stop
			// was requested. Keep a strict abort's failed state honest,
			// though — it may be the very cancellation cause.
			if se := (*StrictError)(nil); errors.As(err, &se) {
				st.state.Store(int32(StateFailed))
				st.setErr(err)
			} else {
				st.state.Store(int32(StateDone))
			}
			return
		}
		st.setErr(err)
		var se *StrictError
		if errors.As(err, &se) {
			st.state.Store(int32(StateFailed))
			s.fatal(se)
			return
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			st.state.Store(int32(StateFailed))
			s.cfg.Logf("input: source %s failed permanently: %v", st.desc.Name, err)
			return
		}
		st.restarts.Add(1)
		brState, wait := st.br.Failure(ranFor)
		switch {
		case brState == guard.BreakerClosed:
			s.cfg.Logf("input: source %s failed (%v), restarting in %v", st.desc.Name, err, wait)
			st.state.Store(int32(StateBackoff))
		case st.desc.Finite:
			st.state.Store(int32(StateFailed))
			s.cfg.Logf("input: source %s exhausted its restart budget (%d): %v",
				st.desc.Name, guard.FailureBudget, err)
			return
		default:
			s.cfg.Logf("input: source %s opened its circuit breaker (%v), probing in %v",
				st.desc.Name, err, wait)
			st.state.Store(int32(StateOpen))
		}
		wake, stop := guard.After(s.clock, wait)
		select {
		case <-wake:
		case <-ctx.Done():
			stop()
			st.state.Store(int32(StateDone))
			return
		}
		st.br.Probe() // open → half-open; a no-op after a plain backoff
	}
}

// runGuarded invokes Run under a panic supervisor: a panicking source is
// a failing source, not a crashed daemon.
func runGuarded(ctx context.Context, src Source, em *Emitter) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("input: source panic: %v", r)
		}
	}()
	return src.Run(ctx, em)
}

// SourceStats is one source's accounting row, served by /statsz.
type SourceStats struct {
	Name          string
	Kind          string
	Detail        string
	State         string
	Segments      int64
	PayloadBytes  int64
	SkippedFrames int64
	Malformed     int64
	Restarts      int64
	QueueDepth    int
	QueueCap      int
	// Datagram delivery accounting; nonzero only for sources that can
	// observe it (udp ?seq mode, SO_RXQ_OVFL).
	Gaps        int64 `json:",omitempty"`
	Reorders    int64 `json:",omitempty"`
	KernelDrops int64 `json:",omitempty"`
	// Tenant is the per-source tenant binding (index); 0 when unbound.
	Tenant uint32 `json:",omitempty"`
	// RateBytesPerSec is the configured replay pace, RatePausedNanos the
	// time the source has slept to keep it; 0 when unpaced.
	RateBytesPerSec int64 `json:",omitempty"`
	RatePausedNanos int64 `json:",omitempty"`
	// Breaker is the circuit state ("closed"/"open"/"half-open") of an
	// infinite source, with its transitions into open and half-open;
	// empty for finite sources, which are abandoned instead of probed.
	Breaker       string `json:",omitempty"`
	BreakerOpens  int64  `json:",omitempty"`
	BreakerProbes int64  `json:",omitempty"`
	LastError     string `json:",omitempty"`
	// The codes State and Breaker name: what their gauges serve.
	state   SourceState
	breaker guard.BreakerState
}

// stats reads one source's accounting: its /statsz row, and once per
// scrape the snapshot behind its source=<name> series.
func (st *sourceState) stats() SourceStats {
	state := SourceState(st.state.Load())
	out := SourceStats{
		Name:            st.desc.Name,
		Kind:            st.desc.Kind,
		Detail:          st.desc.Detail,
		State:           state.String(),
		state:           state,
		Segments:        st.segments.Load(),
		PayloadBytes:    st.bytes.Load(),
		SkippedFrames:   st.skips.Load(),
		Malformed:       st.malformed.Load(),
		Restarts:        st.restarts.Load(),
		QueueDepth:      st.q.Len(),
		QueueCap:        st.q.Cap(),
		Gaps:            st.gaps.Load(),
		Reorders:        st.reorders.Load(),
		KernelDrops:     st.kernelDrops.Load(),
		Tenant:          st.opts.Tenant,
		RateBytesPerSec: st.opts.RateBytesPerSec,
		LastError:       st.lastError(),
	}
	if st.rl != nil {
		out.RatePausedNanos = st.rl.pausedNanos.Load()
	}
	if !st.desc.Finite {
		out.breaker = st.br.State()
		out.Breaker = out.breaker.String()
		out.BreakerOpens, out.BreakerProbes = st.br.Opens(), st.br.Probes()
	}
	return out
}

// Stats snapshots every source's accounting.
func (s *Supervisor) Stats() []SourceStats {
	out := make([]SourceStats, len(s.sources))
	for i, st := range s.sources {
		out[i] = st.stats()
	}
	return out
}

// OpenBreakers counts infinite sources whose circuit breaker is not
// closed — open or probing half-open. The admin layer reports /healthz
// degraded while this is non-zero.
func (s *Supervisor) OpenBreakers() int {
	n := 0
	for _, st := range s.sources {
		if !st.desc.Finite && st.br.State() != guard.BreakerClosed {
			n++
		}
	}
	return n
}

// release settles a lease that will not reach the sink.
func release(o pcap.Owner) {
	if o != nil {
		o.Release()
	}
}

// Emitter is the per-source handle the supervisor passes to Run: the
// leasing, decoding, accounting and policy surface of the pipeline.
// Emitter methods are safe for concurrent use by one source's internal
// goroutines (socket sources emit from per-connection goroutines).
type Emitter struct {
	sup *Supervisor
	st  *sourceState
	ctx context.Context
}

// Lease leases an n-byte buffer from the pipeline's arena. When a
// memory governor is configured it is the admission gate: Lease blocks
// while governed usage sits above the pause threshold, so the source
// stops pulling bytes off the wire until in-flight work lands. If the
// pipeline stops while paused, the lease proceeds anyway — the source's
// next Segment/Frame call observes the cancellation and returns.
func (em *Emitter) Lease(n int) *Buf {
	_ = em.sup.cfg.Governor.Admit(em.ctx, em.sup.clock)
	return em.sup.cfg.Arena.Lease(n)
}

// Segment hands one pre-decoded segment (socket and live sources
// synthesize their own flow keys) to the sink via the source's bounded
// handoff queue, transferring ownership of owner. It blocks while the
// queue is full — that is the per-source backpressure — and returns a
// non-nil error only when the pipeline is stopping; the source should
// return that error from Run.
//
// Ingest policy is applied here, once, for every source kind: the
// segment is tenant-tagged (per-source binding first, then the
// classifier callback) and paced through the source's replay rate
// limiter when one is configured.
func (em *Emitter) Segment(seg pcap.Segment, owner pcap.Owner) error {
	if seg.Key.Tenant == 0 {
		if t := em.st.opts.Tenant; t != 0 {
			seg.Key.Tenant = t
		} else if tag := em.sup.cfg.Tagger; tag != nil {
			seg.Key.Tenant = tag(seg.Key)
		}
	}
	if em.st.rl != nil && len(seg.Payload) > 0 {
		if err := em.st.rl.wait(em.ctx, len(seg.Payload)); err != nil {
			release(owner)
			return err
		}
	}
	if _, err := em.st.q.Put(em.ctx.Done(), burst.Item{Seg: seg, Owner: owner}); err != nil {
		release(owner)
		if errors.Is(err, burst.ErrCanceled) {
			return em.ctx.Err()
		}
		return err
	}
	return nil
}

// Frame decodes one Ethernet frame and hands its segment to the sink,
// transferring ownership of owner on every path. Non-TCP frames are
// counted and skipped; malformed TCP frames go through the malformed
// policy (counted in lenient mode, pipeline abort in strict mode). The
// returned error is non-nil only when the pipeline is stopping.
func (em *Emitter) Frame(frame []byte, owner pcap.Owner) error {
	seg, err := pcap.DecodeTCP(frame)
	if err != nil {
		release(owner)
		if errors.Is(err, pcap.ErrNotTCP) {
			em.st.skips.Add(1)
			return nil
		}
		return em.Malformed(err)
	}
	return em.Segment(seg, owner)
}

// Malformed reports one unparseable frame or record. In lenient mode it
// is counted and nil is returned — the source skips and continues. In
// strict mode it returns the *StrictError the source must return from
// Run, aborting the pipeline with exit-code-2 semantics.
func (em *Emitter) Malformed(err error) error {
	em.st.malformed.Add(1)
	if !em.sup.cfg.Strict {
		return nil
	}
	return &StrictError{Source: em.st.desc.Name, Err: err}
}

// Strict reports whether the pipeline is in strict mode, for sources
// whose skip behavior differs structurally (a spool marking a file dead
// vs. aborting).
func (em *Emitter) Strict() bool { return em.sup.cfg.Strict }

// CountGaps credits sender-numbered datagrams that never arrived (udp
// ?seq mode). A gap that later turns out to be a reorder is also
// counted by CountReorders, so gaps-reorders approximates true loss
// while both counters stay monotonic.
func (em *Emitter) CountGaps(n int64) { em.st.gaps.Add(n) }

// CountReorders credits datagrams that arrived behind a higher sequence
// number.
func (em *Emitter) CountReorders(n int64) { em.st.reorders.Add(n) }

// CountKernelDrops credits datagrams the kernel reports dropped on the
// source's socket buffer (SO_RXQ_OVFL).
func (em *Emitter) CountKernelDrops(n int64) { em.st.kernelDrops.Add(n) }
