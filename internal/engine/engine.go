// Package engine is the sharded, concurrent session engine: the scaling
// layer the paper's §III-B flow model makes possible. Because a flow's
// entire matching context is the tiny (q, m) pair, flows are independent
// and embarrassingly parallel — the engine demultiplexes TCP segments by
// hash(FlowKey) onto N shard goroutines, each owning a private
// flow.Assembler (flow table, runner pool, reassembly buffers) that it
// alone touches. Dispatch works on bursts (internal/burst): one closed and
// tier check per burst, one hash per segment into a per-shard staging
// slice, one queue append per shard; everything after that is
// shard-local.
//
// Guarantees:
//
//   - Flow affinity: every segment of a flow reaches the same shard, so
//     each flow sees its bytes strictly in capture order and produces
//     exactly the matches the sequential scanner would. Only the global
//     interleaving of *different* flows' matches is nondeterministic.
//   - Bounded memory: per-shard queues are bounded (block or drop, by
//     config), flow tables are capped with LRU eviction, and idle flows
//     are swept on a logical clock.
//   - Fault isolation: a panic inside a shard (a poisoned flow hitting a
//     matcher bug) quarantines that one flow and the shard keeps
//     serving; a shard that exhausts its crash budget is marked
//     unhealthy and drop-counts its traffic instead of crashing the
//     process. See shard.go.
//   - Graceful degradation: watermarks on governed memory — buffered
//     bytes over the -max-memory ceiling — step the engine through a
//     documented ladder (normal → soft → hard) instead of letting it fall
//     over. See degrade.go and DESIGN.md §10.
//   - Deterministic shutdown: Close drains every queued segment before
//     returning, and Stats after Close is exact. CloseContext bounds the
//     drain with a deadline and reports per-shard progress when a shard
//     wedges. Handle calls may race with Close: they return ErrClosed,
//     never panic.
package engine

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"matchfilter/internal/burst"
	"matchfilter/internal/core"
	"matchfilter/internal/flow"
	"matchfilter/internal/guard"
	"matchfilter/internal/pcap"
	"matchfilter/internal/telemetry"
	"matchfilter/internal/tenant"
)

// Match is one confirmed match attributed to a flow (alias of
// flow.Match so callers can share handlers between the sequential and
// sharded paths).
type Match = flow.Match

// ErrClosed is returned by HandleFrame after Close.
var ErrClosed = errors.New("engine: closed")

// Config sizes the engine. Every shard scans through a core.FlowBatcher
// of core.MaxBatchFlows lanes (DESIGN.md §18): it defers the in-order
// payload its queue already holds and flushes once, stepping those flows
// in lockstep so their transition loads overlap. Per-flow match streams
// are byte-identical to the sequential scanner's; only cross-flow
// emission order differs.
type Config struct {
	// Shards is the number of shard goroutines (and private flow
	// tables). 0 means GOMAXPROCS.
	Shards int
	// QueueDepth bounds each shard's input queue (segments). 0 means
	// DefaultQueueDepth.
	QueueDepth int
	// DropWhenFull selects the overload policy: false (default) applies
	// backpressure — dispatch blocks until the shard drains; true drops
	// the segment and counts it in Stats.QueueDrops. Inline scanners
	// want backpressure; live-capture front-ends usually prefer drops.
	// The policy also decides what the hard degradation tier does: with
	// drops it sheds at dispatch (Stats.HardDrops); under backpressure it
	// sheds nothing.
	DropWhenFull bool
	// MaxFlows caps each shard's flow table, LRU-evicted (flow.Config),
	// so the engine tracks at most Shards×MaxFlows flows. 0 means
	// unlimited.
	MaxFlows int
	// IdleAfter evicts flows whose last segment is more than this many
	// segments in the past on the owning shard's clock. 0 disables
	// idle sweeping at the normal tier (degraded tiers still sweep, at
	// degradedIdle). The sweep cadence follows the idle age in force
	// (sweepEvery).
	IdleAfter int64
	// SoftWatermark and HardWatermark are fractions of the memory
	// ceiling behind MemPressure. Crossing soft triggers aggressive idle
	// eviction and shrinks reassembly buffers; crossing hard additionally
	// drops new segments at dispatch under DropWhenFull. Tiers exit with
	// hysteresis at 3/4 of their entry threshold. 0 means 0.5 (soft) and
	// 0.9 (hard).
	SoftWatermark float64
	HardWatermark float64
	// StallDeadline arms the shard stall watchdog: a window (one burst of
	// up to batchBurst queued segments and its flush) that runs longer is a
	// stall — the watchdog flags it, and the shard poisons the flow whose
	// match handler call or inline scan the flag landed in once that
	// returns (Stats.StallsRecovered). 0 disables the watchdog. It costs
	// three atomic stores per window and two loads per match, no locks.
	// A stall still stuck at four deadlines is a wedge: the shard is
	// marked wedged (and unhealthy), and dispatch sheds its traffic with
	// accounting (Stats.WedgeDrops) instead of queueing behind a
	// goroutine that may never return. If the step does eventually
	// return, the shard recovers: the flow is quarantined and the
	// wedged/unhealthy marks are lifted (crash budget permitting).
	StallDeadline time.Duration
	// MemPressure is the degradation ladder's one signal: usage over
	// limit from the unified memory governor (guard.Governor.Pressure).
	// Nil leaves the ladder at the normal tier.
	MemPressure func() float64
	// Metrics, when non-nil, receives the engine's telemetry: the row
	// tables over Stats (metrics.go), shared reassembly
	// gauges, and per-shard window histograms (the one metric the hot
	// path pays for directly — two monotonic clock reads and two
	// histogram observes per window; see EXPERIMENTS.md for the measured
	// overhead). The registry must not already hold metrics
	// from another engine: series names would collide.
	Metrics *telemetry.Registry
	// Events, when non-nil, receives every confirmed match as a bounded
	// ring entry (flow key, pattern id, byte offset) for the admin
	// /events endpoint. May be shared with other writers.
	Events *telemetry.EventRing
	// Tenants, when non-nil, enables multi-tenant serving
	// (generation.go): dispatch admits nonzero-tagged segments only for
	// tenants published in the registry, shards serve per-tenant rule
	// generations, and matches on tenant flows feed the tenant's counters
	// and event ring. Wire it by building the registry first, passing it
	// here, then calling Registry.Bind(engine). Untagged traffic never
	// touches it.
	Tenants *tenant.Registry
}

// DefaultQueueDepth is the per-shard queue depth, in segments, that a
// zero Config.QueueDepth means.
const DefaultQueueDepth = 4096

func (c *Config) setDefaults() {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.SoftWatermark <= 0 {
		c.SoftWatermark = 0.5
	}
	if c.HardWatermark <= 0 {
		c.HardWatermark = 0.9
	}
	if c.HardWatermark < c.SoftWatermark {
		c.HardWatermark = c.SoftWatermark
	}
}

// degradedIdle is the aggressive idle age (in segments) used while at or
// above the soft tier: a quarter of IdleAfter when idle sweeping is
// configured, else 1024.
func (c *Config) degradedIdle() int64 {
	if c.IdleAfter > 0 {
		return (c.IdleAfter + 3) / 4
	}
	return 1024
}

// clock stamps the shards' heartbeats and drives the stall watchdog that
// reads them, so both compare readings of one clock. Only export_test.go
// rebinds it.
var clock = guard.Runtime

// Engine fans TCP segments out to per-shard flow scanners.
//
// HandleFrame/HandleSegment may be called from many goroutines
// concurrently; the match handler is invoked from shard goroutines (also
// concurrently) and must be safe for that. Close may race with in-flight
// Handle calls: once Close has begun, Handle calls return ErrClosed.
type Engine struct {
	cfg    Config
	clock  guard.Clock
	shards []*shard
	wg     sync.WaitGroup

	// closing is closed at the start of Close. Handle calls check it once
	// per burst, and a dispatcher blocked against a full (possibly
	// stalled) shard queue selects on it, so shutdown never waits on
	// backpressure. The shard queues own the rest of the ordering: Close
	// closes them, after which an append is refused — never lost, never a
	// panic — and everything appended before is drained.
	closing   chan struct{}
	closeOnce sync.Once
	drained   chan struct{} // closed when every shard goroutine has exited

	// staging pools the per-shard slices HandleBurst sorts a burst into.
	staging sync.Pool

	// cur maps each tenant index — 0 is the default rule set — to its
	// current generation (generation.go): what new flows start on and
	// what a rebuilt assembler replays. genMu guards it and serializes
	// installs and teardowns. tenantUnknown counts tagged segments shed
	// at dispatch because their tenant is not published in
	// Config.Tenants.
	genMu         sync.Mutex
	cur           map[uint32]*generation
	tenantUnknown atomic.Int64

	skipped    atomic.Int64 // non-TCP frames
	queueDrops atomic.Int64 // segments dropped by DropWhenFull
	hardDrops  atomic.Int64 // segments dropped at dispatch by the hard tier

	// Stall watchdog (watchdog.go): dog polls the shards' heartbeats
	// when Config.StallDeadline is set; lastStallRecovery is the Unix
	// nanosecond of the most recent stall recovery, for the /healthz
	// degraded window.
	dog               *guard.Watchdog
	lastStallRecovery atomic.Int64

	// Memory accounting for the governor: flowGauges is always present
	// (registry-backed when Config.Metrics is set, bare atomics
	// otherwise) so BufferedBytes is exact; queuedBytes tracks payload
	// bytes of non-leased segments sitting in shard queues (leased
	// payloads are already accounted by their arena).
	flowGauges  *flow.Gauges
	queuedBytes atomic.Int64

	// Degradation ladder state (degrade.go).
	tier       atomic.Int32
	tierMu     sync.Mutex
	tierSince  time.Time
	tierTime   [3]time.Duration
	tierEnters [3]int64
}

// New starts an engine with Shards goroutines. newRunner becomes
// generation 1 of the default rule set and must be safe for concurrent
// use (engine compilations in this repository are; the per-flow state
// they return need not be); nil starts the engine with no default set —
// untagged segments drop as unknown-tenant (Stats.TenantDrops) until the
// first Reload or ReloadTenant of index 0. onMatch may be nil.
func New(cfg Config, newRunner func() flow.Runner, onMatch func(Match)) *Engine {
	cfg.setDefaults()
	// Shared exact reassembly gauges: every shard's assembler feeds the
	// same three atomics (flow.Gauges composes by addition). Registered
	// on the registry when one is configured; bare atomics otherwise, so
	// MemoryUsage is exact either way.
	var fg *flow.Gauges
	if cfg.Metrics != nil {
		fg = registerFlowGauges(cfg.Metrics)
	} else {
		fg = &flow.Gauges{
			LiveFlows:       &telemetry.Gauge{},
			PendingSegments: &telemetry.Gauge{},
			BufferedBytes:   &telemetry.Gauge{},
		}
	}
	asmCfg := flow.Config{
		MaxFlows:   cfg.MaxFlows,
		Gauges:     fg,
		NewBatcher: func() flow.Batcher { return core.NewFlowBatcher(core.MaxBatchFlows) },
	}
	e := &Engine{
		cfg:       cfg,
		clock:     clock,
		closing:   make(chan struct{}),
		drained:   make(chan struct{}),
		tierSince: clock.Now(),
	}
	e.flowGauges = fg
	e.staging.New = func() any {
		staged := make([][]burst.Item, cfg.Shards)
		return &staged
	}
	if newRunner != nil {
		// Generation 1 of index 0, through the routine every later swap
		// takes. There are no shards to post to yet: each one's first
		// assembler picks it up by replay. It cannot fail on an open engine.
		_, _ = e.Reload(newRunner, false)
	}
	events := cfg.Events
	tenants := cfg.Tenants
	shards := make([]*shard, cfg.Shards)
	for i := range shards {
		s := &shard{
			idx:         i,
			in:          burst.NewQueue(cfg.QueueDepth),
			quarantined: make(map[pcap.FlowKey]struct{}),
			evClock:     events != nil,
			hb:          cfg.StallDeadline > 0,
		}
		// Matches fire on the shard goroutine only, so the flow-string
		// cache below needs no lock.
		names := new(flowNames)
		shardMatch := func(m Match) {
			s.matches.Add(1)
			var tn *tenant.Tenant
			if tenants != nil && m.Flow.Tenant != 0 {
				tn = tenants.Lookup(m.Flow.Tenant)
			}
			if events != nil || tn != nil {
				ev := telemetry.Event{TimeUnixNano: s.evNano, Flow: names.name(m.Flow), Pattern: m.ID, Offset: m.Pos}
				if events != nil {
					events.Add(ev)
				}
				if tn != nil {
					tn.CountMatch(ev)
				}
			}
			if onMatch != nil {
				s.deliver(e, onMatch, m)
			}
		}
		s.rebuild = func() *flow.Assembler {
			a := flow.NewAssembler(asmCfg, nil, shardMatch)
			e.replay(a)
			return a
		}
		s.asm = s.rebuild()
		s.publish()
		shards[i] = s
	}
	e.shards = shards
	if cfg.StallDeadline > 0 {
		// Arm the watchdog before the shard goroutines start. Its own
		// goroutine only reads heartbeat atomics, so starting it against
		// idle shards is safe.
		targets := make([]guard.Target, len(e.shards))
		for i, s := range e.shards {
			targets[i] = &shardTarget{e: e, s: s}
		}
		e.dog = guard.NewWatchdog(e.clock, cfg.StallDeadline, targets...)
	}
	if cfg.Metrics != nil {
		// Register before the shard goroutines start: registration also
		// hands each shard its scan-latency histogram, and the goroutine
		// launch below is the publication barrier for that write.
		e.registerMetrics(cfg.Metrics, e.Stats)
	}
	for _, s := range e.shards {
		e.wg.Add(1)
		go s.run(e)
	}
	return e
}

// HandleFrame decodes one Ethernet frame and routes its segment to the
// owning shard. Non-TCP frames are counted and skipped; decode errors on
// TCP frames are returned. The frame's payload bytes are referenced until
// the shard has scanned them, so callers must not reuse the buffer
// (pcap.Reader allocates per packet and is safe).
func (e *Engine) HandleFrame(frame []byte) error {
	seg, err := pcap.DecodeTCP(frame)
	if err != nil {
		if errors.Is(err, pcap.ErrNotTCP) {
			e.skipped.Add(1)
			return nil
		}
		return err
	}
	return e.HandleSegment(seg)
}

// HandleSegment routes one decoded segment to its flow's shard. It may
// race with Close: after Close has begun it returns ErrClosed.
func (e *Engine) HandleSegment(seg pcap.Segment) error {
	return e.HandleSegmentOwned(seg, nil)
}

// HandleSegmentOwned is HandleSegment for segments whose payload lives
// in a leased buffer: the one-segment burst. The engine owns owner from
// this call on and releases it exactly once, whether the segment is
// scanned or dropped (queue overflow, hard degradation tier, quarantine,
// closed engine).
func (e *Engine) HandleSegmentOwned(seg pcap.Segment, owner pcap.Owner) error {
	return e.HandleBurst([]burst.Item{{Seg: seg, Owner: owner}})
}

// HandleBurst routes a burst of decoded segments to their flows' shards:
// the engine's one dispatch path. It owns every item's lease from this
// call on, on every path; the slice stays the caller's. Segments of one
// flow keep their order. It may race with Close: after Close has begun
// it returns ErrClosed, with every lease it was handed released.
func (e *Engine) HandleBurst(items []burst.Item) error {
	if e.cfg.MemPressure != nil {
		e.evalPressure()
	}
	if e.isClosed() {
		burst.Release(items)
		return ErrClosed
	}
	if e.cfg.DropWhenFull && Tier(e.tier.Load()) == TierHard {
		// Hard degradation under the drop policy: shed at the cheapest
		// possible point, before the burst touches a queue, and account
		// for it.
		e.hardDrops.Add(int64(len(items)))
		burst.Release(items)
		return nil
	}
	staged := e.staging.Get().(*[][]burst.Item)
	defer e.staging.Put(staged)
	for i := range items {
		it := &items[i]
		if t := it.Seg.Key.Tenant; t != 0 {
			// Tagged segment: admit only while the tenant is published (one
			// lock-free index load). A tag with no registry, or one whose
			// tenant was deleted, is shed here with accounting — never
			// scanned under the wrong rule set. Untagged traffic skips this
			// entirely.
			if e.cfg.Tenants == nil || e.cfg.Tenants.Lookup(t) == nil {
				e.tenantUnknown.Add(1)
				release(it.Owner)
				continue
			}
		}
		k := shardIndex(it.Seg.Key, len(e.shards))
		(*staged)[k] = append((*staged)[k], *it)
	}
	var err error
	for k, part := range *staged {
		if len(part) == 0 {
			continue
		}
		if err != nil {
			burst.Release(part) // the engine closed under an earlier shard's part
		} else {
			err = e.enqueue(e.shards[k], part)
		}
		clear(part)
		(*staged)[k] = part[:0]
	}
	return err
}

// enqueue appends one shard's part of a burst to its queue under the
// overload policy, settling whatever the queue does not take.
func (e *Engine) enqueue(s *shard, part []burst.Item) error {
	if s.wedged.Load() {
		// The shard is stuck mid-scan, wedged: queueing behind a
		// goroutine that may never return would strand these buffers (and,
		// under backpressure, this dispatcher). Shed with accounting;
		// sibling shards are unaffected.
		s.wedgeDrops.Add(int64(len(part)))
		burst.Release(part)
		return nil
	}
	// Track non-leased payload bytes entering a queue (leased payloads
	// are accounted by their arena until released). Added before the
	// append and withdrawn by the shard at dequeue — or below on a drop.
	e.queuedBytes.Add(unleasedBytes(part))
	var n int
	var err error
	if e.cfg.DropWhenFull {
		n, err = s.in.Offer(part...)
	} else {
		// Backpressure: block until the shard drains — but never while
		// deaf to shutdown. A stalled shard (faultinject.Stall, a matcher
		// wedged in user code) never makes room; once Close begins, the
		// blocked dispatcher gives up what it still holds.
		n, err = s.in.Put(e.closing, part...)
	}
	if rest := part[n:]; len(rest) > 0 {
		if err == nil {
			e.queueDrops.Add(int64(len(rest)))
		}
		e.queuedBytes.Add(-unleasedBytes(rest))
		burst.Release(rest)
	}
	if err != nil {
		return ErrClosed
	}
	return nil
}

// unleasedBytes totals the payload of the items that carry no lease.
func unleasedBytes(items []burst.Item) (n int64) {
	for i := range items {
		if items[i].Owner == nil {
			n += int64(len(items[i].Seg.Payload))
		}
	}
	return n
}

// isClosed reports whether Close has begun.
func (e *Engine) isClosed() bool {
	select {
	case <-e.closing:
		return true
	default:
		return false
	}
}

// MemoryUsage reports the bytes the engine currently holds that are not
// accounted elsewhere: reassembly buffers (exact, via the shared flow
// gauges) plus non-leased payload bytes parked in shard queues. It is
// the engine's component callback for the unified memory governor.
func (e *Engine) MemoryUsage() int64 {
	n := e.flowGauges.BufferedBytes.Value() + e.queuedBytes.Load()
	if e.cfg.Tenants != nil {
		// Tenant-attributed reassembly bytes answer to their own governor
		// components ("tenant:<id>"); subtract them so the engine
		// component does not double-bill the same buffers.
		n -= min(e.cfg.Tenants.BufferedBytes(), n)
	}
	return n
}

// stallDegradedFor is how long a recovered stall keeps the engine's
// health reading degraded (/healthz answers "degraded: ...").
const stallDegradedFor = time.Minute

// RecentStallRecovery reports how long ago, on the engine's clock, a
// stall was last recovered (a flagged scan step returned and its flow was
// quarantined), and whether that was within the last minute
// (stallDegradedFor). The admin layer uses it for the /healthz degraded
// window.
func (e *Engine) RecentStallRecovery() (ago time.Duration, recent bool) {
	n := e.lastStallRecovery.Load()
	if n == 0 {
		return 0, false
	}
	ago = e.clock.Now().Sub(time.Unix(0, n))
	return ago, ago < stallDegradedFor
}

// release settles a leased buffer; nil means the payload was ordinarily
// allocated and the garbage collector owns it.
func release(o pcap.Owner) {
	if o != nil {
		o.Release()
	}
}

// shardIndex hashes a flow key onto a shard. All segments of a flow
// share a key, hence a shard — the flow-affinity guarantee. FNV-1a alone
// is not enough here: real traffic has sequential client addresses and
// ports whose parities correlate, which collapses `fnv % n` onto a few
// shards — so the hash is finished with a 64-bit avalanche (splitmix64's
// finalizer) that diffuses every input bit into the low bits the modulo
// looks at. One shard needs no hash.
func shardIndex(k pcap.FlowKey, n int) int {
	if n == 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range [3]uint32{
		k.SrcIP, k.DstIP, uint32(k.SrcPort)<<16 | uint32(k.DstPort),
	} {
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(byte(w >> shift))
			h *= prime64
		}
	}
	if k.Tenant != 0 {
		// Fold the tenant tag in so tenants replaying overlapping address
		// space spread independently; untagged traffic keeps its historic
		// shard mapping (and pays nothing here).
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(byte(k.Tenant >> shift))
			h *= prime64
		}
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int(h % uint64(n))
}

// flowNameBits sizes a shard's flow-string cache: 1<<flowNameBits slots.
const flowNameBits = 8

// flowNames is a shard's cache of FlowKey strings for the per-match path
// (event tracing, tenant match counts), where formatting a key allocates.
// It is direct-mapped on a multiplicative hash of the key — two multiplies,
// not shardIndex's byte-serial chain, whose cost an event would pay even
// when one flow fires them all. A shard interleaving match-dense flows
// formats a key once per flow rather than on most events, as long as the
// flows do not share a slot.
type flowNames [1 << flowNameBits]struct {
	key  pcap.FlowKey
	name string
}

// name returns k.String(), formatting it only when k's slot holds
// another key.
func (c *flowNames) name(k pcap.FlowKey) string {
	addrs := uint64(k.SrcIP)<<32 | uint64(k.DstIP)
	rest := uint64(k.SrcPort)<<48 | uint64(k.DstPort)<<32 | uint64(k.Tenant)
	e := &c[(addrs*0x9e3779b97f4a7c15^rest)*0xbf58476d1ce4e5b9>>(64-flowNameBits)]
	if e.key != k || e.name == "" {
		e.key, e.name = k, k.String()
	}
	return e.name
}

// Stats is a point-in-time engine snapshot, aggregated over shards. While
// the engine runs, per-shard counters may lag the hot path by a few dozen
// segments; after Close the snapshot is exact.
type Stats struct {
	Shards int
	// Aggregates of the per-shard reassembly counters (see flow.Stats).
	Packets       int64
	PayloadBytes  int64
	FlowsLive     int64
	FlowsTotal    int64
	OutOfOrder    int64
	DroppedSegs   int64
	EvictedCap    int64
	EvictedIdle   int64
	RunnersReused int64
	// Matches is the number of confirmed matches delivered (exact at all
	// times, unlike the mirrored reassembly counters).
	Matches int64
	// SkippedFrames counts non-TCP frames seen by HandleFrame.
	SkippedFrames int64
	// QueueDrops counts segments dropped under the DropWhenFull policy.
	QueueDrops int64
	// QueueDepth is the instantaneous total of queued segments, QueueCap
	// the total capacity (shards x per-shard depth).
	QueueDepth int64
	QueueCap   int64
	// ShardMatches and ShardPackets expose the per-shard balance.
	ShardMatches []int64
	ShardPackets []int64

	// Fault-isolation counters (shard.go).
	//
	// PoisonedFlows counts flows quarantined after a panic inside their
	// matcher; PoisonedDrops counts later segments of quarantined flows,
	// dropped without scanning. ShardPanics counts every recovered panic,
	// ShardRestarts the rarer assembler rebuilds (a panic during flow
	// excision, i.e. assembler-wide corruption), and LostFlows the live
	// flows discarded by those rebuilds. UnhealthyShards counts shards
	// that exhausted their crash budget; their traffic lands in
	// UnhealthyDrops.
	PoisonedFlows   int64
	PoisonedDrops   int64
	ShardPanics     int64
	ShardRestarts   int64
	LostFlows       int64
	UnhealthyShards int
	UnhealthyDrops  int64

	// Stall-watchdog state (watchdog.go). StallFires counts scan steps
	// flagged past StallDeadline, StallWedges those still stuck at four
	// deadlines; StallsRecovered counts flagged steps
	// that returned and had their flow quarantined. WedgedShards is the
	// shards currently wedged; WedgeDrops counts
	// segments shed at dispatch because their shard was wedged.
	// QueuedBytes is the engine's non-leased queued payload footprint.
	StallFires      int64
	StallWedges     int64
	StallsRecovered int64
	WedgedShards    int
	WedgeDrops      int64
	QueuedBytes     int64

	// Degradation-ladder state (degrade.go). Tier is the current tier;
	// TierEnters counts entries into each tier and TierTime the
	// cumulative time spent there on the engine's clock (index by Tier).
	// HardDrops counts segments shed at dispatch while at the hard tier.
	Tier       Tier
	HardDrops  int64
	TierEnters [3]int64
	TierTime   [3]time.Duration

	// Rule-set generations (generation.go). Generation is the default
	// set's current number; GenFlows maps packed generation id
	// (index<<32 | number) to the live flows still on it (drain-mode
	// flows keep old generations alive until they end).
	// FlowRestarts counts 4-tuple-reuse flow restarts; StaleRunners
	// counts superseded-generation runners discarded instead of
	// recycled.
	Generation   uint64
	GenFlows     map[uint64]int64
	FlowRestarts int64
	StaleRunners int64

	// Multi-tenant serving. TenantDrops counts segments refused inside
	// shard assemblers by tenant policy (quota overrun, an unknown tag
	// that raced a delete through a queue, or untagged traffic before a
	// default rule set exists); the
	// per-tenant split lives in each tenant's own counters.
	// UnknownTenantDrops counts tagged segments shed at dispatch because
	// their tenant was not published.
	TenantDrops        int64
	UnknownTenantDrops int64

	// The matching machine (DESIGN.md §18): accept states visited by the
	// shards' batchers, and payload bytes by the loop that scanned them —
	// lanes stepped in lockstep, or the single-flow Feed loop (lone and
	// accept-dense lanes, runners the batcher refuses).
	AcceptVisits    int64
	LockstepBytes   int64
	SequentialBytes int64
}

// Stats aggregates the engine's counters: the one read behind /statsz,
// the exit report, the -stats ticker and — once per scrape — every row
// of metrics.go.
func (e *Engine) Stats() Stats {
	st := Stats{
		Shards:             len(e.shards),
		Generation:         e.Generation(),
		SkippedFrames:      e.skipped.Load(),
		QueueDrops:         e.queueDrops.Load(),
		QueueCap:           int64(len(e.shards) * e.cfg.QueueDepth),
		HardDrops:          e.hardDrops.Load(),
		UnknownTenantDrops: e.tenantUnknown.Load(),
		QueuedBytes:        e.queuedBytes.Load(),
		ShardMatches:       make([]int64, len(e.shards)),
		ShardPackets:       make([]int64, len(e.shards)),
	}
	for i, s := range e.shards {
		a := s.stats()
		st.fold(&a.Stats)
		st.QueueDepth += a.QueueDepth
		st.ShardMatches[i], st.ShardPackets[i] = a.Matches, a.Packets
		st.Matches += a.Matches

		st.PoisonedFlows += s.poisoned.Load()
		st.PoisonedDrops += s.poisonedDrops.Load()
		st.ShardPanics += s.panics.Load()
		st.ShardRestarts += s.restarts.Load()
		st.LostFlows += s.lostFlows.Load()
		st.UnhealthyDrops += s.unhealthyDrops.Load()
		if s.unhealthy.Load() {
			st.UnhealthyShards++
		}
		st.StallsRecovered += s.stallRecovered.Load()
		st.WedgeDrops += s.wedgeDrops.Load()
		if s.wedged.Load() {
			st.WedgedShards++
		}
	}
	if e.dog != nil {
		st.StallFires, st.StallWedges = e.dog.Fires(), e.dog.Wedges()
	}
	e.tierMu.Lock()
	st.Tier = Tier(e.tier.Load())
	st.TierEnters = e.tierEnters
	st.TierTime = e.tierTime
	st.TierTime[st.Tier] += e.clock.Now().Sub(e.tierSince)
	e.tierMu.Unlock()
	return st
}

// fold adds one shard's reassembly counters: the one place a flow.Stats
// field becomes an engine total.
func (st *Stats) fold(a *flow.Stats) {
	st.Packets += a.Packets
	st.PayloadBytes += a.PayloadBytes
	st.FlowsLive += int64(a.Flows)
	st.FlowsTotal += a.FlowsTotal
	st.OutOfOrder += a.OutOfOrder
	st.DroppedSegs += a.DroppedSegs
	st.EvictedCap += a.EvictedCap
	st.EvictedIdle += a.EvictedIdle
	st.RunnersReused += a.RunnersReused
	st.FlowRestarts += a.FlowRestarts
	st.StaleRunners += a.StaleRunners
	st.TenantDrops += a.TenantDrops
	st.AcceptVisits += a.AcceptVisits
	st.LockstepBytes += a.LockstepBytes
	st.SequentialBytes += a.SequentialBytes
	for id, n := range a.FlowsByGen {
		if st.GenFlows == nil {
			st.GenFlows = make(map[uint64]int64)
		}
		st.GenFlows[id] += n
	}
}

// ScanPcap reads a full capture from r and scans it through a fresh
// engine, closing it when the capture ends. It is the concurrent
// counterpart of flow.ScanPcap: same per-flow match sets, N-way
// parallel. onMatch is called from shard goroutines.
func ScanPcap(r io.Reader, cfg Config, newRunner func() flow.Runner, onMatch func(Match)) (Stats, error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return Stats{}, err
	}
	e := New(cfg, newRunner, onMatch)
	defer e.Close()
	for {
		pkt, err := pr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			e.Close()
			return e.Stats(), fmt.Errorf("engine: %w", err)
		}
		if err := e.HandleFrame(pkt.Data); err != nil {
			e.Close()
			return e.Stats(), fmt.Errorf("engine: %w", err)
		}
	}
	e.Close()
	return e.Stats(), nil
}
