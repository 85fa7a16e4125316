// Shard-side adapter for the guard stall watchdog.
//
// Policy lives here, detection in internal/guard: the watchdog tells us
// a shard's scan step has run past StallDeadline (stall) or four of them
// (wedge), and this adapter translates that into the engine's existing
// fault vocabulary — the poison path for the flow, the unhealthy mark
// for the shard. The division of labor with the shard goroutine is
// deliberate: the watchdog goroutine never touches the quarantine map
// or the assembler (both shard-private); it only stores the flagged
// sequence number (stall) or flips atomics dispatch already reads
// (wedge). The shard itself performs the quarantine when the stuck call
// finally returns — see shard.deliver, process and supervise —
// because only it knows the offending flow key and only it may mutate
// its assembler.
package engine

// shardTarget implements guard.Target for one shard.
type shardTarget struct {
	e *Engine
	s *shard
}

// Beat exposes the shard's heartbeat atomics (see shard.run for the
// writer's ordering).
func (t *shardTarget) Beat() (seq, startNano int64) {
	return t.s.hbSeq.Load(), t.s.hbStart.Load()
}

// Stall remembers the flagged beat. The shard compares this against the
// beat in progress around each match handler call and inline scan, and
// quarantines the flow whose code the flag landed in.
func (t *shardTarget) Stall(seq int64) {
	t.s.stalledSeq.Store(seq)
}

// Wedge fails the shard over: dispatch starts shedding its traffic
// (wedgeDrops) and the shard counts as unhealthy for /healthz and exit
// codes. Re-checks the heartbeat first — the step may have completed
// between the watchdog's poll and this call, and a live shard must not
// be benched for a stall it already survived (stallReturned handles
// that case when the step's return races this store: it clears both
// marks after the swap below, because it runs strictly after the step
// it recovers).
func (t *shardTarget) Wedge(seq int64) {
	if t.s.hbStart.Load() == 0 || t.s.hbSeq.Load() != seq {
		return
	}
	t.s.wedged.Store(true)
	t.s.unhealthy.Store(true)
}
