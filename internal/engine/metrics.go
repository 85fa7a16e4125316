// Telemetry bridge: Stats is the listing of the engine's counters, and the
// tables here name the series each field is served as.
//
// One row set over Stats — read once per scrape, so a scrape walks the
// shards once however many series it serves — carries the engine-wide
// rows and the per-tier families; one row set per shard over its
// shardStats carries the balance and matching-machine rows. A
// scrape costs the scraper, not the shards: every row reads the same
// atomics and snapshots Stats reads. The only metrics the hot path pays
// for directly are the per-shard window histograms (two Observes per
// flush window, see shard.window) and the flow-reassembly gauges (atomic
// adds inside flow.Assembler) — both enabled only when Config.Metrics is
// set. Adding a counter: one Stats field, one row.
package engine

import (
	"strconv"

	"matchfilter/internal/flow"
	"matchfilter/internal/telemetry"
)

// engineRows serves Stats on /metrics. AcceptVisits, LockstepBytes,
// SequentialBytes, ShardMatches and ShardPackets are served per shard
// (shardRows), GenFlows as the per-generation gauges (generation.go),
// TierEnters and TierTime by tierRows.
var engineRows = []telemetry.Row[Stats]{
	// Dispatch.
	telemetry.CounterRow("mfa_engine_skipped_frames_total", "Non-TCP frames seen by HandleFrame.", func(s *Stats) float64 { return float64(s.SkippedFrames) }),
	telemetry.CounterRow("mfa_engine_queue_drops_total", "Segments dropped because a shard queue was full (DropWhenFull policy).", func(s *Stats) float64 { return float64(s.QueueDrops) }),
	telemetry.CounterRow("mfa_engine_hard_drops_total", "Segments shed at dispatch while at the hard degradation tier.", func(s *Stats) float64 { return float64(s.HardDrops) }),
	telemetry.CounterRow("mfa_engine_unknown_tenant_drops_total", "Tagged segments shed at dispatch because their tenant was not published.", func(s *Stats) float64 { return float64(s.UnknownTenantDrops) }),
	// Reassembly, summed over the shards' published snapshots.
	telemetry.CounterRow("mfa_engine_packets_total", "TCP segments scanned.", func(s *Stats) float64 { return float64(s.Packets) }),
	telemetry.CounterRow("mfa_engine_payload_bytes_total", "Payload bytes delivered to matchers.", func(s *Stats) float64 { return float64(s.PayloadBytes) }),
	telemetry.CounterRow("mfa_engine_flows_total", "Flows ever created across shards.", func(s *Stats) float64 { return float64(s.FlowsTotal) }),
	telemetry.CounterRow("mfa_engine_out_of_order_total", "Out-of-order segments buffered for reassembly.", func(s *Stats) float64 { return float64(s.OutOfOrder) }),
	telemetry.CounterRow("mfa_engine_dropped_segments_total", "Segments dropped by reassembly (buffer overflow, stale data).", func(s *Stats) float64 { return float64(s.DroppedSegs) }),
	telemetry.CounterRow("mfa_engine_evicted_cap_total", "Flows LRU-evicted by the MaxFlows cap.", func(s *Stats) float64 { return float64(s.EvictedCap) }),
	telemetry.CounterRow("mfa_engine_evicted_idle_total", "Flows reclaimed by idle sweeps.", func(s *Stats) float64 { return float64(s.EvictedIdle) }),
	telemetry.CounterRow("mfa_engine_runners_reused_total", "Flows served from the runner pool instead of a fresh allocation.", func(s *Stats) float64 { return float64(s.RunnersReused) }),
	telemetry.CounterRow("mfa_engine_flow_restarts_total", "Flows restarted in place by a SYN on a live 4-tuple (connection reuse).", func(s *Stats) float64 { return float64(s.FlowRestarts) }),
	telemetry.CounterRow("mfa_engine_stale_runners_total", "Superseded-generation runners discarded instead of recycled.", func(s *Stats) float64 { return float64(s.StaleRunners) }),
	telemetry.CounterRow("mfa_engine_tenant_drops_total", "Segments refused inside shard assemblers by tenant policy (quota overrun or a tag that raced a delete).", func(s *Stats) float64 { return float64(s.TenantDrops) }),
	telemetry.CounterRow("mfa_engine_matches_total", "Confirmed matches delivered (exact at all times).", func(s *Stats) float64 { return float64(s.Matches) }),
	telemetry.GaugeRow("mfa_generation", "Pattern generation new flows start on; bumps on every successful hot reload.", func(s *Stats) float64 { return float64(s.Generation) }),
	// Occupancy.
	telemetry.GaugeRow("mfa_engine_queue_depth", "Segments queued across all shards right now.", func(s *Stats) float64 { return float64(s.QueueDepth) }),
	telemetry.GaugeRow("mfa_engine_queue_capacity", "Total queue capacity (shards x per-shard depth).", func(s *Stats) float64 { return float64(s.QueueCap) }),
	telemetry.GaugeRow("mfa_engine_queued_bytes", "Non-leased payload bytes parked in shard queues (a memory-governor component).", func(s *Stats) float64 { return float64(s.QueuedBytes) }),
	telemetry.GaugeRow("mfa_engine_flows_live", "Live flows across shards (snapshot-lagged; see mfa_reasm_live_flows for the exact gauge).", func(s *Stats) float64 { return float64(s.FlowsLive) }),
	telemetry.GaugeRow("mfa_engine_shards", "Configured shard count.", func(s *Stats) float64 { return float64(s.Shards) }),
	// Fault isolation (shard.go).
	telemetry.CounterRow("mfa_engine_poisoned_flows_total", "Flows quarantined after a matcher panic.", func(s *Stats) float64 { return float64(s.PoisonedFlows) }),
	telemetry.CounterRow("mfa_engine_poisoned_drops_total", "Segments of quarantined flows dropped unscanned.", func(s *Stats) float64 { return float64(s.PoisonedDrops) }),
	telemetry.CounterRow("mfa_engine_shard_panics_total", "Recovered panics inside shards.", func(s *Stats) float64 { return float64(s.ShardPanics) }),
	telemetry.CounterRow("mfa_engine_shard_restarts_total", "Assembler rebuilds after corruption beyond one flow.", func(s *Stats) float64 { return float64(s.ShardRestarts) }),
	telemetry.CounterRow("mfa_engine_lost_flows_total", "Innocent live flows discarded by assembler rebuilds.", func(s *Stats) float64 { return float64(s.LostFlows) }),
	telemetry.CounterRow("mfa_engine_unhealthy_drops_total", "Segments dropped by shards that exhausted their crash budget.", func(s *Stats) float64 { return float64(s.UnhealthyDrops) }),
	telemetry.GaugeRow("mfa_engine_unhealthy_shards", "Shards currently marked unhealthy (the /healthz and exit-code-3 predicate).", func(s *Stats) float64 { return float64(s.UnhealthyShards) }),
	// Stall watchdog (watchdog.go): stable zeros while it is disarmed.
	telemetry.CounterRow("mfa_guard_watchdog_fires_total", "Scan steps flagged by the stall watchdog (ran past -stall-deadline).", func(s *Stats) float64 { return float64(s.StallFires) }),
	telemetry.CounterRow("mfa_guard_watchdog_wedges_total", "Stalls escalated to wedges (step still stuck past the wedge threshold).", func(s *Stats) float64 { return float64(s.StallWedges) }),
	telemetry.CounterRow("mfa_guard_stalls_recovered_total", "Flagged scan steps that returned; their flow was quarantined.", func(s *Stats) float64 { return float64(s.StallsRecovered) }),
	telemetry.CounterRow("mfa_guard_wedge_drops_total", "Segments shed at dispatch because their shard was wedged mid-scan.", func(s *Stats) float64 { return float64(s.WedgeDrops) }),
	telemetry.GaugeRow("mfa_guard_wedged_shards", "Shards currently stuck mid-scan past the wedge threshold.", func(s *Stats) float64 { return float64(s.WedgedShards) }),
	// Degradation ladder (degrade.go).
	telemetry.GaugeRow("mfa_engine_tier", "Current degradation tier: 0 normal, 1 soft, 2 hard.", func(s *Stats) float64 { return float64(s.Tier) }),
}

// tierRows are the two per-tier families, labeled tier=<name>.
func tierRows(t Tier) []telemetry.Row[Stats] {
	return []telemetry.Row[Stats]{
		telemetry.CounterRow("mfa_engine_tier_enters_total", "Entries into each degradation tier.", func(s *Stats) float64 { return float64(s.TierEnters[t]) }),
		telemetry.CounterRow("mfa_engine_tier_seconds_total", "Cumulative wall-clock seconds spent in each tier.", func(s *Stats) float64 { return s.TierTime[t].Seconds() }),
	}
}

// shardStats is what one shard serves: its published flow.Stats
// (snapshot-lagged) and the two values that are exact at all times.
type shardStats struct {
	flow.Stats
	Matches    int64
	QueueDepth int64
}

func (s *shard) stats() shardStats {
	return shardStats{*s.snap.Load(), s.matches.Load(), int64(s.queued())}
}

// shardRows serves one shard, labeled shard=<i>: the balance, and the
// matching machine from the shard's batcher. The flow.Stats fields without
// a row here are served engine-wide (Stats.fold, engineRows).
var shardRows = []telemetry.Row[shardStats]{
	telemetry.CounterRow("mfa_shard_packets_total", "Segments scanned by this shard.", func(a *shardStats) float64 { return float64(a.Packets) }),
	telemetry.CounterRow("mfa_shard_matches_total", "Matches confirmed by this shard.", func(a *shardStats) float64 { return float64(a.Matches) }),
	telemetry.GaugeRow("mfa_shard_queue_depth", "Segments queued on this shard right now.", func(a *shardStats) float64 { return float64(a.QueueDepth) }),
	telemetry.CounterRow("mfa_scan_accept_visits_total", "Accept states visited by this shard's flows.", func(a *shardStats) float64 { return float64(a.AcceptVisits) }),
	telemetry.CounterRow("mfa_scan_lockstep_bytes_total", "Payload bytes this shard scanned in the lockstep loop.", func(a *shardStats) float64 { return float64(a.LockstepBytes) }),
	telemetry.CounterRow("mfa_scan_sequential_bytes_total", "Payload bytes this shard scanned in Feed, the sequential record-then-drain loop (lanes no lockstep quad takes, accept-dense lanes, inline fallbacks).", func(a *shardStats) float64 { return float64(a.SequentialBytes) }),
}

// registerMetrics wires the engine into reg; read is Engine.Stats. Called
// once from New when Config.Metrics is non-nil, after the shards exist and
// before their goroutines start: it also hands each shard its histograms,
// and the goroutine launch is the publication barrier for that write.
func (e *Engine) registerMetrics(reg *telemetry.Registry, read func() Stats) {
	rows := telemetry.Rows(reg, read, engineRows)
	for t := TierNormal; t <= TierHard; t++ {
		rows.Add(tierRows(t), telemetry.L("tier", t.String()))
	}
	for i, s := range e.shards {
		label := telemetry.L("shard", strconv.Itoa(i))
		telemetry.Rows(reg, s.stats, shardRows, label)
		s.scanHist = reg.Histogram("mfa_shard_scan_seconds",
			"Scan latency (reassembly + matching) per flush window by shard; windows of pure SYN/ACK/FIN bookkeeping are not timed.",
			telemetry.LatencyBuckets, label)
		s.flowsHist = reg.Histogram("mfa_shard_window_flows",
			"Lanes flushed per window by shard: how many flows lockstep had to overlap.",
			windowFlowBuckets, label)
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
