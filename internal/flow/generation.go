// Pattern-set generations.
//
// The paper's flow model (§III-B) makes the per-flow matching context a
// tiny opaque value the assembler merely stores — which is exactly what
// makes the *automaton* swappable under live traffic: a new compiled
// pattern set is just a new runner factory, and each flow's context
// stays valid as long as the flow keeps using the runner it started
// with. A Generation bundles one such factory with an identity, and the
// assembler tracks which generation every live flow belongs to, so a
// hot reload can choose whether existing flows drain on the automaton
// they started on or restart on the new one. Stale runners — contexts
// compiled for a superseded automaton — are never recycled into new
// flows (their state layout may not even fit the new automaton; see
// core.Runner.SetContext's bounds checks for what happens when one is
// forced).
//
// Generations are per tenant (tenant.go): every tenant tag, the default
// tag 0 included, has one current generation, and SetGeneration is the
// one swap. internal/engine drives it per shard; a standalone Assembler
// that never calls it runs entirely on the default tenant's implicit
// generation 0 and pays nothing for any of it.

package flow

import "matchfilter/internal/telemetry"

// Generation identifies one loaded pattern generation.
type Generation struct {
	// ID distinguishes generations; a swap to the current ID is a no-op.
	// IDs must be unique across tenants (internal/engine packs the tenant
	// index into the high 32 bits).
	ID uint64
	// New allocates a start-of-flow runner compiled for this generation.
	New func() Runner
	// Live, when non-nil, counts this generation's live flows. The gauge
	// may be shared by many assemblers (one per engine shard — atomic
	// adds compose); each assembler tracks its own contribution so
	// ReleaseGauges can withdraw it wholesale after corruption.
	Live *telemetry.Gauge
}

// genState is one generation's per-assembler bookkeeping.
type genState struct {
	gen   Generation
	owner *tenantState // tenant whose flows this generation serves
	flows int64        // live flows of this generation in this assembler
	live  gaugeAcct    // this assembler's contribution to gen.Live
}

// SetGeneration installs pattern generation g as tenant ten's current
// generation, creating a nonzero tenant's serving state on first use
// (acct, which may be nil, is bound then and shared for the tenant's
// lifetime; the default tenant 0 always exists and takes no acct — the
// assembler-wide caps and gauges are its accounting). Flows the tenant
// creates from now on use g.New, and its recycled-runner free list is
// emptied so no previous-generation runner can serve a new flow. When
// resetExisting is true every live flow of *this tenant* restarts its
// matching state on g immediately (TCP reassembly state — nextSeq and
// buffered out-of-order segments — is preserved; only the matcher
// context restarts); when false, live flows drain on the generation they
// started with. Other tenants are untouched either way. Applying the
// current generation again is a no-op. Returns the number of live flows
// moved onto g.
func (a *Assembler) SetGeneration(ten uint32, g Generation, acct *TenantAcct, resetExisting bool) int {
	ts := a.def
	if ten != 0 {
		if ts = a.tenants[ten]; ts == nil {
			ts = &tenantState{acct: acct}
			if acct != nil {
				ts.gLive.g = acct.LiveFlows
				ts.gBytes.g = acct.BufferedBytes
			}
			if a.tenants == nil {
				a.tenants = make(map[uint32]*tenantState)
			}
			a.tenants[ten] = ts
		}
	}
	if ts.cur != nil && g.ID == ts.cur.gen.ID {
		return 0
	}
	// Deferred scans must not outlive the runners they reference: a
	// resetExisting swap replaces runners wholesale, and even a draining
	// swap recycles through a free list this call is about to empty.
	a.FlushBatch()
	clear(ts.free)
	ts.free = ts.free[:0]
	old := ts.cur
	ngen, ok := a.gens[g.ID]
	if !ok {
		ngen = &genState{gen: g, owner: ts}
		ngen.live.g = g.Live
		a.gens[g.ID] = ngen
	}
	ts.cur = ngen
	moved := 0
	if resetExisting {
		for _, ctx := range a.flows {
			if ctx.ten != ts || ctx.gen == ngen {
				continue
			}
			a.st.StaleRunners++
			a.moveFlowGen(ctx, ngen)
			ctx.runner = a.getRunner(ts)
			moved++
		}
	}
	if old != nil {
		a.pruneGen(old)
	}
	return moved
}

// moveFlowGen reassigns a live flow from its generation to another,
// settling both generations' flow counts and live gauges. The caller is
// responsible for replacing the flow's runner.
func (a *Assembler) moveFlowGen(ctx *flowCtx, to *genState) {
	from := ctx.gen
	from.flows--
	from.live.add(-1)
	ctx.gen = to
	to.flows++
	to.live.add(1)
	a.pruneGen(from)
}

// pruneGen forgets a superseded generation once its last flow is gone,
// so a long-lived assembler's generation table stays O(generations with
// live flows), not O(reloads ever). A generation is superseded when it
// is no longer its owning tenant's current one (a dropped tenant has no
// current, so all of its generations prune).
func (a *Assembler) pruneGen(g *genState) {
	if g.flows == 0 && g.owner.cur != g {
		delete(a.gens, g.gen.ID)
	}
}
