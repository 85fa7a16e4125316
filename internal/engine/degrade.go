// Graceful-degradation ladder.
//
// A DPI engine's worth is decided under hostile load, not at peak
// throughput: when traffic outruns the scanners the failure mode must be
// a documented, accounted, reversible loss of service — never an OOM
// kill or an unbounded latency cliff. A flow's whole matching context is
// a state and w filter bits (the paper's §III-B), so under load the one
// thing that grows is the payload bytes the engine holds. The ladder's
// one signal is therefore governed memory over its ceiling
// (Config.MemPressure, the -max-memory governor); it steps through three
// tiers:
//
//	normal  full service: buffered reassembly, configured idle policy.
//	soft    pressure ≥ SoftWatermark: shards shrink per-flow
//	        out-of-order buffers (dropping the excess, counted) and
//	        sweep idle flows aggressively on a short clock. Scanning
//	        continues for every segment; matches on in-order traffic are
//	        unaffected.
//	hard    pressure ≥ HardWatermark: under DropWhenFull, dispatch drops
//	        new segments with accounting (Stats.HardDrops) before they
//	        touch a queue, so queued work drains and memory recedes.
//	        Under backpressure nothing is shed: the governor's Admit gate
//	        already holds leasing producers below the ceiling, and a
//	        shard that is truly stuck is the watchdog's to shed.
//
// A full queue or a capped flow table is not pressure: the queue blocks
// or drops by itself and the table evicts LRU, so neither cap can grow
// memory past what it bounds. Tiers exit with hysteresis at 3/4 of their
// entry threshold so the ladder doesn't flap at a boundary. Pressure is
// evaluated once per dispatched burst and by each shard whose queue runs
// dry while degraded, so the ladder steps down even if producers have
// gone quiet — and only when a governor is wired: with none the ladder
// costs nothing and stays normal. Every transition is counted and timed
// in Stats (TierEnters, TierTime).
package engine

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

// evalPressure recomputes the tier from the governor's pressure, applying
// exit hysteresis, and records the transition (count and time per tier,
// on the engine's clock) under tierMu. Callers hold a non-nil
// Config.MemPressure.
func (e *Engine) evalPressure() {
	e.tierMu.Lock()
	defer e.tierMu.Unlock()
	p := e.cfg.MemPressure()
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
	now := e.clock.Now()
	e.tierTime[cur] += now.Sub(e.tierSince)
	e.tierSince = now
	e.tierEnters[next]++
	e.tier.Store(int32(next))
}
