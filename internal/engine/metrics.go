// Telemetry bridge: exposes the engine's existing counters, the
// degradation ladder, and per-shard balance as registry metrics.
//
// The engine's accounting predates the registry (atomic counters wired
// through Stats), so nearly everything here is a callback metric reading
// the same atomics the Stats snapshot reads — no double counting, no
// second increment discipline on the hot path, and a scrape costs the
// scraper, not the shards. The only metrics the hot path pays for
// directly are the per-shard window histograms (two Observes per flush
// window, see shard.window) and the flow-reassembly gauges (atomic adds
// inside flow.Assembler) — both enabled only when Config.Metrics is set.
package engine

import (
	"strconv"
	"time"

	"matchfilter/internal/flow"
	"matchfilter/internal/telemetry"
)

// registerMetrics wires the engine into reg. Called once from New when
// Config.Metrics is non-nil, after the shards exist.
func (e *Engine) registerMetrics(reg *telemetry.Registry) {
	// Dispatch-level counters.
	reg.CounterFunc("mfa_engine_skipped_frames_total",
		"Non-TCP frames seen by HandleFrame.",
		func() float64 { return float64(e.skipped.Load()) })
	reg.CounterFunc("mfa_engine_queue_drops_total",
		"Segments dropped because a shard queue was full (DropWhenFull policy).",
		func() float64 { return float64(e.queueDrops.Load()) })
	reg.CounterFunc("mfa_engine_hard_drops_total",
		"Segments shed at dispatch while at the hard degradation tier.",
		func() float64 { return float64(e.hardDrops.Load()) })

	// Aggregates over shard snapshots (the same mirrors Stats reads).
	sumSnap := func(f func(*flow.Stats) int64) func() float64 {
		return func() float64 {
			var n int64
			for _, s := range e.shards {
				n += f(s.snap.Load())
			}
			return float64(n)
		}
	}
	reg.CounterFunc("mfa_engine_packets_total",
		"TCP segments scanned.", sumSnap(func(a *flow.Stats) int64 { return a.Packets }))
	reg.CounterFunc("mfa_engine_payload_bytes_total",
		"Payload bytes delivered to matchers.", sumSnap(func(a *flow.Stats) int64 { return a.PayloadBytes }))
	reg.CounterFunc("mfa_engine_flows_total",
		"Flows ever created across shards.", sumSnap(func(a *flow.Stats) int64 { return a.FlowsTotal }))
	reg.CounterFunc("mfa_engine_out_of_order_total",
		"Out-of-order segments buffered for reassembly.", sumSnap(func(a *flow.Stats) int64 { return a.OutOfOrder }))
	reg.CounterFunc("mfa_engine_dropped_segments_total",
		"Segments dropped by reassembly (buffer overflow, stale data).", sumSnap(func(a *flow.Stats) int64 { return a.DroppedSegs }))
	reg.CounterFunc("mfa_engine_evicted_cap_total",
		"Flows LRU-evicted by the MaxFlows cap.", sumSnap(func(a *flow.Stats) int64 { return a.EvictedCap }))
	reg.CounterFunc("mfa_engine_evicted_idle_total",
		"Flows reclaimed by idle sweeps.", sumSnap(func(a *flow.Stats) int64 { return a.EvictedIdle }))
	reg.CounterFunc("mfa_engine_runners_reused_total",
		"Flows served from the runner pool instead of a fresh allocation.", sumSnap(func(a *flow.Stats) int64 { return a.RunnersReused }))
	reg.CounterFunc("mfa_engine_flow_restarts_total",
		"Flows restarted in place by a SYN on a live 4-tuple (connection reuse).", sumSnap(func(a *flow.Stats) int64 { return a.FlowRestarts }))
	reg.CounterFunc("mfa_engine_stale_runners_total",
		"Superseded-generation runners discarded instead of recycled.", sumSnap(func(a *flow.Stats) int64 { return a.StaleRunners }))
	reg.CounterFunc("mfa_engine_tenant_drops_total",
		"Segments refused inside shard assemblers by tenant policy (quota overrun or a tag that raced a delete).",
		sumSnap(func(a *flow.Stats) int64 { return a.TenantDrops }))
	reg.CounterFunc("mfa_engine_unknown_tenant_drops_total",
		"Tagged segments shed at dispatch because their tenant was not published.",
		func() float64 { return float64(e.tenantUnknown.Load()) })

	// Rule-set generations (generation.go). The per-generation live-flow
	// gauges are registered as generations are installed.
	reg.GaugeFunc("mfa_generation",
		"Pattern generation new flows start on; bumps on every successful hot reload.",
		func() float64 { return float64(e.Generation()) })

	reg.CounterFunc("mfa_engine_matches_total",
		"Confirmed matches delivered (exact at all times).",
		func() float64 {
			var n int64
			for _, s := range e.shards {
				n += s.matches.Load()
			}
			return float64(n)
		})

	// Occupancy gauges.
	reg.GaugeFunc("mfa_engine_queue_depth",
		"Segments queued across all shards right now.",
		func() float64 {
			n := 0
			for _, s := range e.shards {
				n += s.queued()
			}
			return float64(n)
		})
	reg.GaugeFunc("mfa_engine_queue_capacity",
		"Total queue capacity (shards x per-shard depth).",
		func() float64 { return float64(e.queueCap) })
	reg.GaugeFunc("mfa_engine_flows_live",
		"Live flows across shards (snapshot-lagged; see mfa_reasm_live_flows for the exact gauge).",
		sumSnap(func(a *flow.Stats) int64 { return int64(a.Flows) }))
	reg.GaugeFunc("mfa_engine_shards",
		"Configured shard count.",
		func() float64 { return float64(len(e.shards)) })

	// Fault-isolation counters (shard.go).
	sumShard := func(f func(*shard) int64) func() float64 {
		return func() float64 {
			var n int64
			for _, s := range e.shards {
				n += f(s)
			}
			return float64(n)
		}
	}
	reg.CounterFunc("mfa_engine_poisoned_flows_total",
		"Flows quarantined after a matcher panic.", sumShard(func(s *shard) int64 { return s.poisoned.Load() }))
	reg.CounterFunc("mfa_engine_poisoned_drops_total",
		"Segments of quarantined flows dropped unscanned.", sumShard(func(s *shard) int64 { return s.poisonedDrops.Load() }))
	reg.CounterFunc("mfa_engine_shard_panics_total",
		"Recovered panics inside shards.", sumShard(func(s *shard) int64 { return s.panics.Load() }))
	reg.CounterFunc("mfa_engine_shard_restarts_total",
		"Assembler rebuilds after corruption beyond one flow.", sumShard(func(s *shard) int64 { return s.restarts.Load() }))
	reg.CounterFunc("mfa_engine_lost_flows_total",
		"Innocent live flows discarded by assembler rebuilds.", sumShard(func(s *shard) int64 { return s.lostFlows.Load() }))
	reg.CounterFunc("mfa_engine_unhealthy_drops_total",
		"Segments dropped by shards that exhausted their crash budget.", sumShard(func(s *shard) int64 { return s.unhealthyDrops.Load() }))
	reg.GaugeFunc("mfa_engine_unhealthy_shards",
		"Shards currently marked unhealthy (the /healthz and exit-code-3 predicate).",
		func() float64 {
			n := 0
			for _, s := range e.shards {
				if s.unhealthy.Load() {
					n++
				}
			}
			return float64(n)
		})

	// Stall watchdog (watchdog.go). Registered even when the watchdog is
	// disarmed so dashboards see stable zeros instead of absent series.
	reg.CounterFunc("mfa_guard_watchdog_fires_total",
		"Scan steps flagged by the stall watchdog (ran past -stall-deadline).",
		func() float64 {
			if e.dog == nil {
				return 0
			}
			return float64(e.dog.Fires())
		})
	reg.CounterFunc("mfa_guard_watchdog_wedges_total",
		"Stalls escalated to wedges (step still stuck past the wedge threshold).",
		func() float64 {
			if e.dog == nil {
				return 0
			}
			return float64(e.dog.Wedges())
		})
	reg.CounterFunc("mfa_guard_stalls_recovered_total",
		"Flagged scan steps that returned; their flow was quarantined.",
		sumShard(func(s *shard) int64 { return s.stallRecovered.Load() }))
	reg.CounterFunc("mfa_guard_wedge_drops_total",
		"Segments shed at dispatch because their shard was wedged mid-scan.",
		sumShard(func(s *shard) int64 { return s.wedgeDrops.Load() }))
	reg.GaugeFunc("mfa_guard_wedged_shards",
		"Shards currently stuck mid-scan past the wedge threshold.",
		func() float64 {
			n := 0
			for _, s := range e.shards {
				if s.wedged.Load() {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("mfa_engine_queued_bytes",
		"Non-leased payload bytes parked in shard queues (a memory-governor component).",
		func() float64 { return float64(e.queuedBytes.Load()) })

	// Degradation ladder (degrade.go).
	reg.GaugeFunc("mfa_engine_tier",
		"Current degradation tier: 0 normal, 1 soft, 2 hard.",
		func() float64 { return float64(e.tier.Load()) })
	for t := TierNormal; t <= TierHard; t++ {
		t := t
		label := telemetry.L("tier", t.String())
		reg.CounterFunc("mfa_engine_tier_enters_total",
			"Entries into each degradation tier.",
			func() float64 {
				e.tierMu.Lock()
				defer e.tierMu.Unlock()
				return float64(e.tierEnters[t])
			}, label)
		reg.CounterFunc("mfa_engine_tier_seconds_total",
			"Cumulative wall-clock seconds spent in each tier.",
			func() float64 {
				e.tierMu.Lock()
				defer e.tierMu.Unlock()
				d := e.tierTime[t]
				if Tier(e.tier.Load()) == t {
					d += time.Since(e.tierSince)
				}
				return d.Seconds()
			}, label)
	}

	// Per-shard balance and scan latency.
	for i, s := range e.shards {
		s := s
		label := telemetry.L("shard", strconv.Itoa(i))
		reg.CounterFunc("mfa_shard_packets_total",
			"Segments scanned by this shard.",
			func() float64 { return float64(s.snap.Load().Packets) }, label)
		reg.CounterFunc("mfa_shard_matches_total",
			"Matches confirmed by this shard.",
			func() float64 { return float64(s.matches.Load()) }, label)
		reg.GaugeFunc("mfa_shard_queue_depth",
			"Segments queued on this shard right now.",
			func() float64 { return float64(s.queued()) }, label)
		s.scanHist = reg.Histogram("mfa_shard_scan_seconds",
			"Scan latency (reassembly + matching) per flush window by shard; windows of pure SYN/ACK/FIN bookkeeping are not timed.",
			telemetry.LatencyBuckets, label)
		s.flowsHist = reg.Histogram("mfa_shard_window_flows",
			"Lanes flushed per window by shard: how many flows lockstep had to overlap.",
			windowFlowBuckets, label)
		// The matching machine, from the shard's batcher (snapshot-lagged).
		reg.CounterFunc("mfa_scan_accept_visits_total",
			"Accept states visited by this shard's flows.",
			func() float64 { return float64(s.snap.Load().AcceptVisits) }, label)
		reg.CounterFunc("mfa_scan_lockstep_bytes_total",
			"Payload bytes this shard scanned in the lockstep loop.",
			func() float64 { return float64(s.snap.Load().LockstepBytes) }, label)
		reg.CounterFunc("mfa_scan_sequential_bytes_total",
			"Payload bytes this shard scanned in the single-flow loop (lone or accept-dense lanes, inline fallbacks).",
			func() float64 { return float64(s.snap.Load().SequentialBytes) }, label)
	}
}

// windowFlowBuckets spans one lane (nothing to overlap) to batchBurst
// segments of distinct flows.
var windowFlowBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

// registerFlowGauges creates the shared reassembly gauges every shard's
// assembler feeds (exact, unlike the snapshot-lagged mfa_engine_flows_live).
func registerFlowGauges(reg *telemetry.Registry) *flow.Gauges {
	return &flow.Gauges{
		LiveFlows:       reg.Gauge("mfa_reasm_live_flows", "Live flows in shard reassembly tables (exact)."),
		PendingSegments: reg.Gauge("mfa_reasm_pending_segments", "Out-of-order segments buffered across shards."),
		BufferedBytes:   reg.Gauge("mfa_reasm_buffered_bytes", "Payload bytes held in out-of-order buffers."),
	}
}
