// Multi-tenant serving: (tenant, generation) swaps and dispatch gating.
//
// A tenant's rule-set swap rides the same machinery as a whole-daemon
// reload (reload.go): a generation is installed, a command is delivered
// to every shard, and each shard applies it on its own goroutine before
// the next segment it scans. Two differences:
//
//   - Identity. Tenant generations are numbered per tenant and packed
//     into the flow-layer generation id as tenant<<32 | generation, so
//     one assembler-wide generation table serves all tenants without
//     collision (the default rule set is tenant 0 and keeps its small
//     ids — a single-tenant daemon's ids are unchanged).
//   - Delivery. Whole-daemon reloads keep their newest-wins atomic slot;
//     tenant commands for *different* tenants must all arrive, so they
//     ride a small mutex-guarded pending list per shard, drained at the
//     same points the reload slot is checked. The dispatch hot path
//     pays one atomic bool load per segment for it.
//
// Dispatch admits a tagged segment only while its tenant is published
// in the registry; Put publishes a new tenant only after its first
// generation's command is queued on every shard, and Delete unpublishes
// before the teardown command is queued. A tagged segment can therefore
// never create a flow on the wrong rule set — at worst it lands on a
// shard after the teardown command and is dropped by the assembler's
// unknown-tenant check (counted in Stats.TenantDrops).
package engine

import (
	"errors"
	"strconv"

	"matchfilter/internal/flow"
	"matchfilter/internal/telemetry"
	"matchfilter/internal/tenant"
)

// tenantCmd is one pending per-tenant serving change for a shard:
// install gen as the tenant's current generation, or — when gen is nil
// — tear the tenant down.
type tenantCmd struct {
	ten   uint32
	gen   *generation
	reset bool
}

// packGen builds the assembler-wide generation id for a tenant's
// per-tenant generation number.
func packGen(idx uint32, gen uint64) uint64 {
	return uint64(idx)<<32 | (gen & 0xffffffff)
}

// ReloadTenant installs newRunner as tenant t's next generation on
// every shard and returns the per-tenant generation number. Semantics
// mirror Reload exactly, scoped to the tenant: segments dispatched
// after it returns are scanned post-swap; reset restarts the tenant's
// live flows on the new set, otherwise they drain on the old; the call
// never blocks on shard queues. Implements tenant.Swapper.
func (e *Engine) ReloadTenant(t *tenant.Tenant, newRunner func() flow.Runner, reset bool) (uint64, error) {
	if newRunner == nil {
		return 0, errors.New("engine: tenant reload with nil runner factory")
	}
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()
	if e.isClosed() {
		return 0, ErrClosed
	}
	gen := t.NextGeneration()
	g := &generation{
		id:        packGen(t.Index(), gen),
		newRunner: newRunner,
		acct:      t.Acct(),
	}
	if e.cfg.Metrics != nil {
		g.live = registerTenantGenerationGauge(e.cfg.Metrics, t.ID(), gen)
	}
	e.tenantMu.Lock()
	if e.tenantCur == nil {
		e.tenantCur = make(map[uint32]*generation)
	}
	e.tenantCur[t.Index()] = g
	e.tenantMu.Unlock()
	cmd := tenantCmd{ten: t.Index(), gen: g, reset: reset}
	for _, s := range e.shards {
		s.queueTenantCmd(cmd)
	}
	return gen, nil
}

// DropTenant tears tenant t down on every shard: its flows are removed
// (runners discarded — they belong to a dead automaton) and later
// segments carrying its index are dropped. Implements tenant.Swapper.
func (e *Engine) DropTenant(t *tenant.Tenant) error {
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()
	if e.isClosed() {
		return ErrClosed
	}
	e.tenantMu.Lock()
	delete(e.tenantCur, t.Index())
	e.tenantMu.Unlock()
	cmd := tenantCmd{ten: t.Index()}
	for _, s := range e.shards {
		s.queueTenantCmd(cmd)
	}
	return nil
}

// queueTenantCmd appends one tenant command to the shard's pending list
// and nudges an idle shard. Never blocks.
func (s *shard) queueTenantCmd(cmd tenantCmd) {
	s.tenantMu.Lock()
	s.tenantCmds = append(s.tenantCmds, cmd)
	s.tenantPending.Store(true)
	s.tenantMu.Unlock()
	s.in.Poke()
}

// applyTenantCmds drains the pending tenant-command list in arrival
// order. Runs on the shard goroutine only.
func (s *shard) applyTenantCmds() {
	s.tenantMu.Lock()
	cmds := s.tenantCmds
	s.tenantCmds = nil
	s.tenantPending.Store(false)
	s.tenantMu.Unlock()
	if len(cmds) == 0 {
		return
	}
	for _, c := range cmds {
		if c.gen == nil {
			s.asm.DropTenant(c.ten)
		} else {
			s.asm.SetTenantGeneration(c.ten, c.gen.flowGen(), c.gen.acct, c.reset)
		}
	}
	s.publish()
}

// installTenants replays every tenant's current generation onto a fresh
// assembler — the rebuild path, so a shard recovering from corruption
// serves the same tenant set as its siblings.
func (e *Engine) installTenants(a *flow.Assembler) {
	e.tenantMu.Lock()
	for idx, g := range e.tenantCur {
		a.SetTenantGeneration(idx, g.flowGen(), g.acct, false)
	}
	e.tenantMu.Unlock()
}

// registerTenantGenerationGauge is the tenant-scoped counterpart of
// registerGenerationGauge: live flows per (tenant, generation), so a
// per-tenant drain can be watched complete.
func registerTenantGenerationGauge(reg *telemetry.Registry, id string, gen uint64) *telemetry.Gauge {
	return reg.Gauge("mfa_tenant_generation_live_flows",
		"Live flows on each (tenant, generation) pair (exact; drained generations read 0).",
		telemetry.L("tenant", id),
		telemetry.L("generation", strconv.FormatUint(gen, 10)))
}
