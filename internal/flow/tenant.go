// Per-tenant serving state.
//
// Multi-tenant serving (internal/tenant) generalizes generations from
// "one current pattern set" to one current pattern set *per tenant*:
// every flow key carries a tenant tag (pcap.FlowKey.Tenant, 0 for the
// default rule set), and the assembler keeps an independent current
// generation and recycled-runner free list for each tenant it serves.
// The free lists must be separate — runners compiled for one tenant's
// automaton can never serve another tenant's flow — and the per-tenant
// quota accounting lives here because the assembler is the only layer
// that knows exactly when a flow is created or a byte is buffered.
//
// An assembler that only ever sees tenant-0 traffic allocates none of
// this: the tenants map stays nil and the default tenant's accounting
// hooks are no-op gauges. Swaps for every tag go through SetGeneration
// (generation.go).

package flow

import (
	"sync/atomic"

	"matchfilter/internal/telemetry"
)

// TenantAcct is one tenant's cross-shard accounting and quota block.
// One instance is shared by every assembler serving the tenant (the
// gauges are atomics, adds compose), so quotas are enforced against the
// tenant's *global* occupancy, not per shard. The four series are
// required (internal/tenant supplies registered or bare ones); quota
// fields read zero mean "unlimited".
type TenantAcct struct {
	// LiveFlows counts the tenant's live flows across all assemblers.
	LiveFlows *telemetry.Gauge
	// BufferedBytes counts the tenant's out-of-order payload bytes held
	// in reassembly buffers across all assemblers.
	BufferedBytes *telemetry.Gauge
	// MaxFlows, when > 0, caps LiveFlows: segments that would create a
	// flow beyond the cap are dropped and counted in FlowQuotaDrops.
	MaxFlows atomic.Int64
	// MaxBufferedBytes, when > 0, caps BufferedBytes: out-of-order
	// segments that would buffer beyond the cap are dropped and counted
	// in ByteQuotaDrops. In-order traffic is never buffered and so never
	// hits this quota.
	MaxBufferedBytes atomic.Int64
	// FlowQuotaDrops / ByteQuotaDrops count segments refused by the two
	// quotas, attributed to this tenant.
	FlowQuotaDrops *telemetry.Counter
	ByteQuotaDrops *telemetry.Counter
}

// tenantState is one tenant's per-assembler serving state: the
// generation its new flows start on, its private recycled-runner free
// list, and this assembler's contribution to the shared accounting.
type tenantState struct {
	cur  *genState // generation new flows start on; nil before the first SetGeneration and once dropped
	free []Runner  // recycled runners of cur — never cross-tenant
	acct *TenantAcct
	// Contribution tracking against acct's shared gauges (nil-safe
	// no-ops for the default tenant, which has no acct).
	gLive  gaugeAcct
	gBytes gaugeAcct
}

// tenantOf resolves a segment's tenant tag to serving state. Tag 0 is
// the default tenant; a nonzero tag is known only after SetGeneration
// installed the tenant (internal/engine delivers that command to every
// shard before it admits the tenant's traffic). nil means "no rule set
// serves this tag": the caller drops the segment.
func (a *Assembler) tenantOf(id uint32) *tenantState {
	ts := a.def
	if id != 0 {
		ts = a.tenants[id]
	}
	if ts == nil || ts.cur == nil {
		return nil
	}
	return ts
}

// admitFlow counts a new flow against its tenant, enforcing the flow
// quota: the check and the count are one atomic step on the shared
// gauge, so shards admitting concurrently cannot overshoot the cap.
func (a *Assembler) admitFlow(ts *tenantState) bool {
	if acct := ts.acct; acct != nil {
		if max := acct.MaxFlows.Load(); max > 0 {
			if !acct.LiveFlows.IncBelow(max) {
				acct.FlowQuotaDrops.Inc()
				return false
			}
			ts.gLive.contrib++
			return true
		}
	}
	ts.gLive.add(1)
	return true
}

// DropTenant removes tenant ten entirely: every one of its live flows
// is torn down (runners discarded, never recycled — they belong to a
// dead automaton), its free list is emptied, and its serving state is
// forgotten, so subsequent segments carrying the tag are dropped as
// unknown-tenant. Returns the number of flows removed. Dropping the
// default tenant (0) or an unknown tenant is a no-op.
func (a *Assembler) DropTenant(ten uint32) int {
	ts := a.tenants[ten]
	if ts == nil {
		return 0
	}
	// Scan what's pending before the tenant's runners are discarded.
	a.FlushBatch()
	// With no current generation every one of the tenant's generations is
	// superseded: each prunes as unlink takes its last flow, and the
	// current one here if it had none.
	cur := ts.cur
	ts.cur, ts.free = nil, nil
	a.pruneGen(cur)
	n := 0
	for _, ctx := range a.flows {
		if ctx.ten == ts {
			a.unlink(ctx)
			n++
		}
	}
	delete(a.tenants, ten)
	return n
}
