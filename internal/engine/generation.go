// Rule-set generations: one swap path for every tenant index.
//
// Per-flow matching state is an opaque context tied to the automaton that
// created it (the paper's §III-B flow model), so swapping rule sets under
// live traffic is swapping runner factories. The engine versions those
// factories as *generations*, one current generation per tenant index —
// index 0 is the default rule set untagged traffic scans against, the
// rest are the tenants of Config.Tenants — and install is the one routine
// that mints and delivers them (DESIGN.md §14):
//
//   - Identity. Generations are numbered per index, from 1, and packed
//     into the flow-layer id as index<<32 | number: one assembler-wide
//     table, no collisions, small ids for the default set.
//   - Delivery. install records the generation as the index's current
//     one (what a rebuilt assembler replays) and posts a command to every
//     shard, which applies it on its own goroutine before the next
//     segment it scans, or at once when idle: segments dispatched after
//     install returns are scanned post-swap. Posting never blocks — a
//     stalled shard applies the swap when it next breathes.
//   - Bounded. A shard holds at most one pending command per index. A
//     newer swap replaces the pending one — the superseded generation
//     never serves a byte there and is not retained — but keeps its reset
//     (so flows a coalesced reset would have restarted restart on the
//     newest generation) and its teardown; a teardown supersedes
//     everything pending for its index.
//   - Drain or reset. Flows in flight keep matching on the generation
//     they started with until they end, or with reset restart matching on
//     the new one at once (reassembly state kept, confirmed matches
//     stand). Either way the index's runner free list is emptied, so a
//     runner compiled for a superseded automaton never serves a new flow.
//
// Vetting the candidate (core.MFA.SelfCheck) is the caller's job.
// Dispatch admits a tagged segment only while its tenant is published in
// the registry: Put publishes after the first generation is posted to
// every shard, Delete unpublishes before the teardown is, so a tagged
// segment never scans under the wrong rule set — at worst it reaches a
// shard after the teardown and drops there (Stats.TenantDrops). Untagged
// traffic never consults the registry.
package engine

import (
	"errors"
	"strconv"

	"matchfilter/internal/flow"
	"matchfilter/internal/telemetry"
	"matchfilter/internal/tenant"
)

// generation is one installed runner factory. Engine.cur holds each
// index's newest; shards hold older ones alive through their assemblers
// until the last drain-mode flow ends.
type generation struct {
	idx       uint32 // tenant index; 0 is the default rule set
	n         uint64 // per-index generation number, from 1
	newRunner func() flow.Runner
	live      *telemetry.Gauge // per-generation live-flow gauge; may be nil
	// acct is the owning tenant's accounting block: shards enforce that
	// tenant's quotas against it. The flow layer ignores it for index 0,
	// whose bounds are the engine-wide caps and governor component.
	acct *flow.TenantAcct
}

// packGen builds the assembler-wide generation id for an index's n-th
// generation; packGen(0, n) == n.
func packGen(idx uint32, n uint64) uint64 {
	return uint64(idx)<<32 | (n & 0xffffffff)
}

// flowGen is the generation in the shape flow.SetGeneration consumes.
func (g *generation) flowGen() flow.Generation {
	return flow.Generation{ID: packGen(g.idx, g.n), New: g.newRunner, Live: g.live}
}

// swapCmd is what one shard has pending for one index: tear the index
// down (drop), then make gen its current generation (gen != nil).
type swapCmd struct {
	gen         *generation
	reset, drop bool
}

// Generation reports the number of the generation new untagged flows
// start on: 0 before the default rule set is installed, 1 for the
// factory New was given, bumped by every successful swap of index 0.
func (e *Engine) Generation() uint64 {
	e.genMu.Lock()
	defer e.genMu.Unlock()
	if g := e.cur[0]; g != nil {
		return g.n
	}
	return 0
}

// Reload installs newRunner as the default rule set's next generation:
// the registry-less spelling of ReloadTenant for index 0.
func (e *Engine) Reload(newRunner func() flow.Runner, reset bool) (uint64, error) {
	return e.install(0, "", nil, newRunner, reset)
}

// ReloadTenant installs newRunner as tenant t's next generation on every
// shard and returns its per-tenant number. Segments dispatched after it
// returns are scanned post-swap; reset restarts the tenant's live flows
// on the new set, otherwise they drain on the old. It never waits on
// shard queues and is safe to call concurrently with Handle calls;
// concurrent installs serialize. After Close it returns ErrClosed.
// Implements tenant.Swapper.
func (e *Engine) ReloadTenant(t *tenant.Tenant, newRunner func() flow.Runner, reset bool) (uint64, error) {
	return e.install(t.Index(), t.ID(), t.Acct(), newRunner, reset)
}

// install mints index idx's next generation from newRunner, records it
// as current and posts the swap to every shard. New calls it before the
// shards exist, so their assemblers start on generation 1 by replay.
func (e *Engine) install(idx uint32, id string, acct *flow.TenantAcct, newRunner func() flow.Runner, reset bool) (uint64, error) {
	if newRunner == nil {
		return 0, errors.New("engine: reload with nil runner factory")
	}
	e.genMu.Lock()
	defer e.genMu.Unlock()
	if e.isClosed() {
		return 0, ErrClosed
	}
	g := &generation{idx: idx, n: 1, newRunner: newRunner, acct: acct}
	if prev := e.cur[idx]; prev != nil {
		g.n = prev.n + 1
	}
	if e.cfg.Metrics != nil {
		g.live = registerGenerationGauge(e.cfg.Metrics, idx, id, g.n)
	}
	if e.cur == nil {
		e.cur = make(map[uint32]*generation)
	}
	e.cur[idx] = g
	for _, s := range e.shards {
		s.post(idx, swapCmd{gen: g, reset: reset})
	}
	return g.n, nil
}

// DropTenant tears tenant t down on every shard: its flows are removed
// (runners discarded — they belong to a dead automaton) and later
// segments carrying its index are dropped. Implements tenant.Swapper.
func (e *Engine) DropTenant(t *tenant.Tenant) error {
	e.genMu.Lock()
	defer e.genMu.Unlock()
	if e.isClosed() {
		return ErrClosed
	}
	delete(e.cur, t.Index())
	for _, s := range e.shards {
		s.post(t.Index(), swapCmd{drop: true})
	}
	return nil
}

// post merges c into the shard's pending command for idx and nudges an
// idle shard. Never blocks.
func (s *shard) post(idx uint32, c swapCmd) {
	s.cmdMu.Lock()
	if prev, ok := s.cmds[idx]; ok && !c.drop {
		c.reset = c.reset || prev.reset
		c.drop = prev.drop
	}
	if s.cmds == nil {
		s.cmds = make(map[uint32]swapCmd)
	}
	s.cmds[idx] = c
	s.pending.Store(true)
	s.cmdMu.Unlock()
	s.in.Poke()
}

// applyPending consumes the shard's pending commands. Commands for
// different indexes touch disjoint serving state, so their order is
// immaterial. Runs on the shard goroutine only.
func (s *shard) applyPending() {
	s.cmdMu.Lock()
	cmds := s.cmds
	s.cmds = nil
	s.pending.Store(false)
	s.cmdMu.Unlock()
	if len(cmds) == 0 {
		return
	}
	for idx, c := range cmds {
		if c.drop {
			s.asm.DropTenant(idx)
		}
		if c.gen != nil {
			s.asm.SetGeneration(idx, c.gen.flowGen(), c.gen.acct, c.reset)
		}
	}
	s.publish()
}

// replay installs every index's current generation onto a fresh
// assembler — how a shard's first assembler starts on generation 1, and
// how one rebuilt after corruption serves the same rule sets as its
// siblings rather than the ones the engine booted with.
func (e *Engine) replay(a *flow.Assembler) {
	e.genMu.Lock()
	defer e.genMu.Unlock()
	for idx, g := range e.cur {
		a.SetGeneration(idx, g.flowGen(), g.acct, false)
	}
}

// registerGenerationGauge creates the exact live-flow gauge for one
// generation: labelled by number for the default set, by (tenant,
// number) for the rest. Superseded generations read 0 once their flows
// drain; the series stays registered (one per swap) so a scrape can
// watch a drain complete.
func registerGenerationGauge(reg *telemetry.Registry, idx uint32, id string, n uint64) *telemetry.Gauge {
	gen := telemetry.L("generation", strconv.FormatUint(n, 10))
	if idx == 0 {
		return reg.Gauge("mfa_generation_live_flows",
			"Live flows on each pattern generation (exact; drained generations read 0).", gen)
	}
	return reg.Gauge("mfa_tenant_generation_live_flows",
		"Live flows on each (tenant, generation) pair (exact; drained generations read 0).",
		telemetry.L("tenant", id), gen)
}
