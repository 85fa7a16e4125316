package flow

import (
	"testing"

	"matchfilter/internal/core"
	"matchfilter/internal/pcap"
	"matchfilter/internal/telemetry"
)

// tkey is key(i) tagged with a tenant.
func tkey(ten uint32, i int) pcap.FlowKey {
	k := key(i)
	k.Tenant = ten
	return k
}

// packTestGen mirrors the engine's (tenant, generation) id packing so
// assembler-level tests use realistic, collision-free generation ids.
func packTestGen(ten uint32, gen uint64) uint64 { return uint64(ten)<<32 | gen }

func newAcct() *TenantAcct {
	return &TenantAcct{
		LiveFlows:      &telemetry.Gauge{},
		BufferedBytes:  &telemetry.Gauge{},
		FlowQuotaDrops: &telemetry.Counter{},
		ByteQuotaDrops: &telemetry.Counter{},
	}
}

// installTenant is the shard-side install: tenant ten serves automaton m.
func installTenant(a *Assembler, ten uint32, m *core.MFA, acct *TenantAcct) {
	a.SetGeneration(ten, Generation{ID: packTestGen(ten, 1), New: func() Runner { return m.NewRunner() }}, acct, false)
}

// Two tenants with disjoint rule sets on one assembler: each tenant's
// flows match only its own rules, and the default set serves untagged
// traffic unchanged.
func TestTenantRuleSetIsolation(t *testing.T) {
	mDef := buildMFA(t, "default")
	mA := buildMFA(t, "alpha")
	mB := buildMFA(t, "bravo")
	var matches []Match
	a := newAsm(mDef, &matches)
	installTenant(a, 1, mA, newAcct())
	installTenant(a, 2, mB, newAcct())

	payload := []byte("default alpha bravo")
	for _, k := range []pcap.FlowKey{key(1), tkey(1, 2), tkey(2, 3)} {
		a.HandleSegment(pcap.Segment{Key: k, Seq: 0, Flags: pcap.FlagSYN})
		a.HandleSegment(pcap.Segment{Key: k, Seq: 1, Flags: pcap.FlagACK, Payload: payload})
	}
	if len(matches) != 3 {
		t.Fatalf("got %d matches, want 3 (one per flow): %v", len(matches), matches)
	}
	for _, m := range matches {
		// Every rule set has exactly one rule (id 1); the isolation claim
		// is that each flow fired exactly once — its own tenant's rule —
		// not three times against a merged set.
		if m.ID != 1 {
			t.Errorf("flow %v matched rule %d", m.Flow, m.ID)
		}
	}
}

// A tagged segment whose tenant was never installed must be dropped and
// counted, not scanned against the default rule set.
func TestUnknownTenantDropped(t *testing.T) {
	m := buildMFA(t, "needle")
	var matches []Match
	a := newAsm(m, &matches)

	k := tkey(7, 1)
	a.HandleSegment(pcap.Segment{Key: k, Seq: 0, Flags: pcap.FlagSYN})
	a.HandleSegment(pcap.Segment{Key: k, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("needle")})
	if len(matches) != 0 {
		t.Fatalf("unknown tenant's traffic was scanned: %v", matches)
	}
	st := a.Stats()
	if st.TenantDrops != 2 {
		t.Errorf("TenantDrops = %d, want 2", st.TenantDrops)
	}
	if st.FlowsTotal != 0 {
		t.Errorf("unknown tenant created a flow: FlowsTotal = %d", st.FlowsTotal)
	}
}

// Recycled runners must never cross tenants: a runner compiled for one
// tenant's automaton cannot serve another tenant's flow.
func TestTenantFreeListIsolation(t *testing.T) {
	mDef := buildMFA(t, "default")
	mA := buildMFA(t, "alpha")
	mB := buildMFA(t, "bravo")
	var matches []Match
	a := newAsm(mDef, &matches)
	installTenant(a, 1, mA, newAcct())
	installTenant(a, 2, mB, newAcct())

	// Open and close a tenant-1 flow: its runner lands on tenant 1's
	// free list.
	k1 := tkey(1, 1)
	a.HandleSegment(pcap.Segment{Key: k1, Seq: 0, Flags: pcap.FlagSYN})
	a.HandleSegment(pcap.Segment{Key: k1, Seq: 1, Flags: pcap.FlagFIN})
	if st := a.Stats(); st.RunnersReused != 0 {
		t.Fatalf("setup: RunnersReused = %d", st.RunnersReused)
	}

	// A new tenant-2 flow must NOT pick that runner up.
	k2 := tkey(2, 2)
	a.HandleSegment(pcap.Segment{Key: k2, Seq: 0, Flags: pcap.FlagSYN})
	if st := a.Stats(); st.RunnersReused != 0 {
		t.Fatalf("tenant 2 reused tenant 1's runner: RunnersReused = %d", st.RunnersReused)
	}

	// A new tenant-1 flow does.
	k3 := tkey(1, 3)
	a.HandleSegment(pcap.Segment{Key: k3, Seq: 0, Flags: pcap.FlagSYN})
	if st := a.Stats(); st.RunnersReused != 1 {
		t.Fatalf("tenant 1 did not reuse its own runner: RunnersReused = %d", st.RunnersReused)
	}
}

// MaxFlows quota: flows beyond the cap are refused at creation, counted
// under the tenant, and other tenants are untouched.
func TestTenantFlowQuota(t *testing.T) {
	mDef := buildMFA(t, "default")
	mA := buildMFA(t, "alpha")
	var matches []Match
	a := newAsm(mDef, &matches)
	acct := newAcct()
	acct.MaxFlows.Store(2)
	installTenant(a, 1, mA, acct)

	for i := 1; i <= 3; i++ {
		k := tkey(1, i)
		a.HandleSegment(pcap.Segment{Key: k, Seq: 0, Flags: pcap.FlagSYN})
	}
	if got := acct.LiveFlows.Value(); got != 2 {
		t.Errorf("LiveFlows = %d, want 2", got)
	}
	if got := acct.FlowQuotaDrops.Value(); got != 1 {
		t.Errorf("FlowQuotaDrops = %d, want 1", got)
	}
	if st := a.Stats(); st.TenantDrops != 1 {
		t.Errorf("TenantDrops = %d, want 1", st.TenantDrops)
	}

	// The default tenant admits freely while tenant 1 is at quota.
	a.HandleSegment(pcap.Segment{Key: key(9), Seq: 0, Flags: pcap.FlagSYN})
	a.HandleSegment(pcap.Segment{Key: key(9), Seq: 1, Flags: pcap.FlagACK, Payload: []byte("default")})
	if len(matches) != 1 {
		t.Errorf("default tenant impaired by tenant 1's quota: %v", matches)
	}

	// Quota frees up when a flow ends.
	a.HandleSegment(pcap.Segment{Key: tkey(1, 1), Seq: 1, Flags: pcap.FlagFIN})
	a.HandleSegment(pcap.Segment{Key: tkey(1, 4), Seq: 0, Flags: pcap.FlagSYN})
	if got := acct.LiveFlows.Value(); got != 2 {
		t.Errorf("after FIN+new: LiveFlows = %d, want 2", got)
	}
}

// MaxBufferedBytes quota: out-of-order bytes beyond the cap are refused
// at buffering time.
func TestTenantByteQuota(t *testing.T) {
	mA := buildMFA(t, "alpha")
	var matches []Match
	a := newAsm(buildMFA(t, "default"), &matches)
	acct := newAcct()
	acct.MaxBufferedBytes.Store(4)
	installTenant(a, 1, mA, acct)

	k := tkey(1, 1)
	a.HandleSegment(pcap.Segment{Key: k, Seq: 0, Flags: pcap.FlagSYN})
	// Two future segments: 3 bytes fit, 3 more would exceed the 4-byte cap.
	a.HandleSegment(pcap.Segment{Key: k, Seq: 50, Flags: pcap.FlagACK, Payload: []byte("abc")})
	if got := acct.BufferedBytes.Value(); got != 3 {
		t.Fatalf("BufferedBytes = %d, want 3", got)
	}
	a.HandleSegment(pcap.Segment{Key: k, Seq: 60, Flags: pcap.FlagACK, Payload: []byte("def")})
	if got := acct.BufferedBytes.Value(); got != 3 {
		t.Errorf("BufferedBytes = %d, want 3 (second segment refused)", got)
	}
	if got := acct.ByteQuotaDrops.Value(); got != 1 {
		t.Errorf("ByteQuotaDrops = %d, want 1", got)
	}
	if st := a.Stats(); st.TenantDrops != 1 {
		t.Errorf("TenantDrops = %d, want 1", st.TenantDrops)
	}
}

// DropTenant tears down exactly the tenant's flows and makes its tag
// unknown; other tenants and the default set keep serving.
func TestDropTenant(t *testing.T) {
	mDef := buildMFA(t, "default")
	mA := buildMFA(t, "alpha")
	var matches []Match
	a := newAsm(mDef, &matches)
	acct := newAcct()
	installTenant(a, 1, mA, acct)

	a.HandleSegment(pcap.Segment{Key: tkey(1, 1), Seq: 0, Flags: pcap.FlagSYN})
	a.HandleSegment(pcap.Segment{Key: tkey(1, 2), Seq: 0, Flags: pcap.FlagSYN})
	a.HandleSegment(pcap.Segment{Key: key(3), Seq: 0, Flags: pcap.FlagSYN})
	if got := acct.LiveFlows.Value(); got != 2 {
		t.Fatalf("setup: LiveFlows = %d", got)
	}

	if n := a.DropTenant(1); n != 2 {
		t.Errorf("DropTenant removed %d flows, want 2", n)
	}
	if got := acct.LiveFlows.Value(); got != 0 {
		t.Errorf("after drop: LiveFlows = %d, want 0", got)
	}

	// The tag is now unknown: later segments drop.
	a.HandleSegment(pcap.Segment{Key: tkey(1, 1), Seq: 1, Flags: pcap.FlagACK, Payload: []byte("alpha")})
	if len(matches) != 0 {
		t.Errorf("dropped tenant still matching: %v", matches)
	}

	// The default flow is untouched.
	a.HandleSegment(pcap.Segment{Key: key(3), Seq: 1, Flags: pcap.FlagACK, Payload: []byte("default")})
	if len(matches) != 1 {
		t.Errorf("default tenant lost service across DropTenant: %v", matches)
	}

	// Dropping again, or dropping the default tenant, is a no-op.
	if n := a.DropTenant(1); n != 0 {
		t.Errorf("second DropTenant removed %d flows", n)
	}
	if n := a.DropTenant(0); n != 0 {
		t.Errorf("DropTenant(0) removed %d flows", n)
	}
}

// A per-tenant reset swap restarts only that tenant's flows; other
// tenants' in-flight match state is untouched.
func TestTenantResetScoped(t *testing.T) {
	mDef := buildMFA(t, "ab.*cd")
	mA := buildMFA(t, "ab.*cd")
	var matches []Match
	a := newAsm(mDef, &matches)
	acct := newAcct()
	installTenant(a, 1, mA, acct)

	kDef, kA := key(1), tkey(1, 2)
	for _, k := range []pcap.FlowKey{kDef, kA} {
		a.HandleSegment(pcap.Segment{Key: k, Seq: 0, Flags: pcap.FlagSYN})
		a.HandleSegment(pcap.Segment{Key: k, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("ab")})
	}

	// Tenant 1 swaps generations with reset; the default tenant must not
	// be disturbed.
	moved := a.SetGeneration(1, Generation{ID: packTestGen(1, 2), New: func() Runner { return mA.NewRunner() }}, acct, true)
	if moved != 1 {
		t.Fatalf("reset moved %d flows, want 1 (only tenant 1's)", moved)
	}

	// Tenant 1's flow restarted: "cd" does not complete the old "ab".
	a.HandleSegment(pcap.Segment{Key: kA, Seq: 3, Flags: pcap.FlagACK, Payload: []byte("cd")})
	if len(matches) != 0 {
		t.Errorf("tenant flow kept pre-reset match state: %v", matches)
	}
	// The default flow still completes.
	a.HandleSegment(pcap.Segment{Key: kDef, Seq: 3, Flags: pcap.FlagACK, Payload: []byte("cd")})
	if len(matches) != 1 {
		t.Errorf("default flow lost its match state to a tenant reset: %v", matches)
	}
}
