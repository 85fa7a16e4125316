// Graceful-degradation ladder.
//
// A DPI engine's worth is decided under hostile load, not at peak
// throughput: when traffic outruns the scanners the failure mode must be
// a documented, accounted, reversible loss of service — never an OOM
// kill or an unbounded latency cliff. The engine therefore tracks one
// scalar "pressure" signal — the worst of aggregate queue occupancy and
// flow-table occupancy — and steps through three tiers:
//
//	normal  full service: buffered reassembly, configured idle policy.
//	soft    pressure ≥ SoftWatermark: shards shrink per-flow
//	        out-of-order buffers (dropping the excess, counted) and
//	        sweep idle flows aggressively on a short clock. Scanning
//	        continues for every segment; matches on in-order traffic are
//	        unaffected.
//	hard    pressure ≥ HardWatermark: dispatch drops new segments with
//	        accounting (Stats.HardDrops) before they touch a queue, so
//	        queued work drains and memory recedes. Already-queued
//	        segments are still scanned.
//
// Tiers exit with hysteresis at 3/4 of their entry threshold so the
// ladder doesn't flap at a boundary. Pressure is evaluated on the
// dispatch path every evalEvery segments and by each shard every
// statsEvery segments, so the ladder steps down as queues drain even if
// producers have gone quiet. Every transition is counted and timed in
// Stats (TierEnters, TierTime).
package engine

import "time"

// Tier is a degradation level. Higher is more degraded.
type Tier int32

const (
	TierNormal Tier = iota
	TierSoft
	TierHard
)

func (t Tier) String() string {
	switch t {
	case TierNormal:
		return "normal"
	case TierSoft:
		return "soft"
	case TierHard:
		return "hard"
	default:
		return "unknown"
	}
}

// pressure computes the load signal in [0,1]: the worst of queue
// occupancy, (when flow tables are capped) flow-table occupancy, and
// (when a memory governor is wired in) governed memory usage over its
// ceiling — so the ladder reacts to an approaching -max-memory limit
// exactly as it reacts to a filling queue.
func (e *Engine) pressure() float64 {
	queued := 0
	for _, s := range e.shards {
		queued += s.in.Len() // the queue's occupancy, not the window in hand
	}
	p := float64(queued) / float64(e.queueCap)
	if e.flowCap > 0 {
		var live int64
		for _, s := range e.shards {
			live += int64(s.snap.Load().Flows)
		}
		if fp := float64(live) / float64(e.flowCap); fp > p {
			p = fp
		}
	}
	if e.cfg.MemPressure != nil {
		if mp := e.cfg.MemPressure(); mp > p {
			p = mp
		}
	}
	return p
}

// evalPressure recomputes the tier from current pressure, applying exit
// hysteresis, and records the transition (count and wall-clock time per
// tier) under tierMu.
func (e *Engine) evalPressure() {
	e.tierMu.Lock()
	defer e.tierMu.Unlock()
	p := e.pressure()
	soft, hard := e.cfg.SoftWatermark, e.cfg.HardWatermark
	cur := Tier(e.tier.Load())
	next := cur
	switch cur {
	case TierNormal:
		if p >= hard {
			next = TierHard
		} else if p >= soft {
			next = TierSoft
		}
	case TierSoft:
		if p >= hard {
			next = TierHard
		} else if p < soft*0.75 {
			next = TierNormal
		}
	case TierHard:
		if p < hard*0.75 {
			if p < soft*0.75 {
				next = TierNormal
			} else {
				next = TierSoft
			}
		}
	}
	if next == cur {
		return
	}
	now := time.Now()
	e.tierTime[cur] += now.Sub(e.tierSince)
	e.tierSince = now
	e.tierEnters[next]++
	e.tier.Store(int32(next))
}
