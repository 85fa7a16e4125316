// Registry, classifier and admin-CRUD tests for multi-tenant serving,
// plus the two ISSUE acceptance scenarios: two tenants on one daemon
// must match exactly like two single-tenant daemons, and a tenant
// driven past its quota must degrade alone. Package tenant_test so the
// suite can drive a real engine (engine imports tenant).
package tenant_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"matchfilter/internal/core"
	"matchfilter/internal/engine"
	"matchfilter/internal/flow"
	"matchfilter/internal/pcap"
	"matchfilter/internal/regexparse"
	"matchfilter/internal/rules"
	"matchfilter/internal/telemetry"
	"matchfilter/internal/tenant"
	"matchfilter/internal/trace"
)

func buildMFA(t testing.TB, sources ...string) *core.MFA {
	t.Helper()
	rules := make([]core.Rule, len(sources))
	for i, src := range sources {
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			t.Fatal(err)
		}
		rules[i] = core.Rule{Pattern: p, ID: int32(i + 1)}
	}
	m, err := core.Compile(rules, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	return m
}

func factory(m *core.MFA) func() flow.Runner {
	return func() flow.Runner { return m.NewRunner() }
}

// compileRules is the test stand-in for mfaserve's gate: the same parse
// (the one loader) → compile → SelfCheck pipeline the admin PUT handler
// must run.
func compileRules(body []byte) (tenant.PutSpec, error) {
	rs, sources, err := rules.Parse(body)
	if err != nil {
		return tenant.PutSpec{}, err
	}
	m, err := core.Compile(rs, core.Options{})
	if err != nil {
		return tenant.PutSpec{}, err
	}
	if err := m.SelfCheck(); err != nil {
		return tenant.PutSpec{}, err
	}
	return tenant.PutSpec{NewRunner: factory(m), Sources: sources, Rules: body, Build: m.Stats()}, nil
}

func tkey(ten uint32, n int) pcap.FlowKey {
	return pcap.FlowKey{
		Tenant:  ten,
		SrcIP:   0x0a000000 | uint32(n+1),
		DstIP:   0xc0a80101,
		SrcPort: uint16(20000 + n),
		DstPort: 443,
	}
}

// waitFor polls cond with a generous wall bound, for observations that
// trail the asynchronous shard pipeline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// serving builds a bound registry + engine pair with the default rule
// set m and an optional match collector.
func serving(t *testing.T, cfg tenant.Config, ecfg engine.Config, m *core.MFA, onMatch func(engine.Match)) (*tenant.Registry, *engine.Engine) {
	t.Helper()
	reg := tenant.NewRegistry(cfg)
	ecfg.Tenants = reg
	e := engine.New(ecfg, factory(m), onMatch)
	reg.Bind(e)
	return reg, e
}

func TestRegistryLifecycle(t *testing.T) {
	metrics := telemetry.NewRegistry()
	def := buildMFA(t, "default")
	alpha := buildMFA(t, "alpha")
	bravo := buildMFA(t, "bravo")

	unbound := tenant.NewRegistry(tenant.Config{})
	if _, _, err := unbound.Put("acme", tenant.PutSpec{NewRunner: factory(alpha)}); err == nil {
		t.Fatal("Put on an unbound registry must fail")
	}

	reg, e := serving(t, tenant.Config{Metrics: metrics}, engine.Config{Shards: 2}, def, nil)
	defer e.Close()

	if _, _, err := reg.Put("bad id!", tenant.PutSpec{NewRunner: factory(alpha)}); err == nil {
		t.Fatal("invalid id accepted")
	}
	if _, _, err := reg.Put("acme", tenant.PutSpec{}); err == nil {
		t.Fatal("nil runner factory accepted")
	}

	ta, gen, err := reg.Put("acme", tenant.PutSpec{NewRunner: factory(alpha), Sources: []string{"alpha"}})
	if err != nil {
		t.Fatal(err)
	}
	if ta.Index() != 1 || gen != 1 {
		t.Fatalf("first tenant got (idx=%d, gen=%d), want (1, 1)", ta.Index(), gen)
	}
	if reg.Lookup(1) != ta || reg.ByID("acme") != ta {
		t.Fatal("Lookup/ByID do not resolve the new tenant")
	}

	// Per-tenant reload: same identity, next generation.
	ta2, gen2, err := reg.Put("acme", tenant.PutSpec{NewRunner: factory(bravo)})
	if err != nil {
		t.Fatal(err)
	}
	if ta2 != ta || gen2 != 2 {
		t.Fatalf("re-Put got (same=%v, gen=%d), want (true, 2)", ta2 == ta, gen2)
	}

	if err := reg.Delete("acme"); err != nil {
		t.Fatal(err)
	}
	if reg.Lookup(1) != nil || reg.ByID("acme") != nil || len(reg.List()) != 0 {
		t.Fatal("deleted tenant still resolvable")
	}
	if err := reg.Delete("acme"); err == nil {
		t.Fatal("double delete must report unknown tenant")
	}

	// Re-create: fresh index, same metric series — this Put panics if
	// the telemetry block were re-registered instead of reused.
	tb, gen3, err := reg.Put("acme", tenant.PutSpec{NewRunner: factory(alpha)})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Index() != 2 || gen3 != 1 {
		t.Fatalf("re-created tenant got (idx=%d, gen=%d), want (2, 1)", tb.Index(), gen3)
	}
	if reg.Lookup(1) != nil {
		t.Fatal("stale index still resolves after re-create")
	}

	list := reg.List()
	if len(list) != 1 || list[0].ID != "acme" || list[0].Index != 2 {
		t.Fatalf("List = %+v", list)
	}
}

func TestValidateID(t *testing.T) {
	for _, id := range []string{"a", "acme", "Acme-01", "t.one_2", strings.Repeat("x", 64)} {
		if err := tenant.ValidateID(id); err != nil {
			t.Errorf("ValidateID(%q) = %v, want nil", id, err)
		}
	}
	for _, id := range []string{"", "-lead", ".lead", "_lead", "has space", "slash/y", strings.Repeat("x", 65), "ütf"} {
		if err := tenant.ValidateID(id); err == nil {
			t.Errorf("ValidateID(%q) accepted", id)
		}
	}
}

func TestParseCIDRRule(t *testing.T) {
	r, err := tenant.ParseCIDRRule("10.1.2.3/16=acme")
	if err != nil {
		t.Fatal(err)
	}
	// Host bits must be masked off at parse time.
	if r.IP != 0x0a010000 || r.Bits != 16 || r.ID != "acme" {
		t.Fatalf("parsed %+v", r)
	}
	for _, bad := range []string{"", "10.0.0.0/8", "=acme", "10.0.0.0=acme", "10.0.0.0/33=acme", "10.0.0/8=acme", "300.0.0.0/8=acme", "10.0.0.0/8=bad id"} {
		if _, err := tenant.ParseCIDRRule(bad); err == nil {
			t.Errorf("ParseCIDRRule(%q) accepted", bad)
		}
	}
}

func TestClassifier(t *testing.T) {
	def := buildMFA(t, "default")
	alpha := buildMFA(t, "alpha")
	reg, e := serving(t, tenant.Config{}, engine.Config{Shards: 1}, def, nil)
	defer e.Close()

	mustRule := func(s string) tenant.CIDRRule {
		r, err := tenant.ParseCIDRRule(s)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// "a" is latent (not Put yet); the narrower "b" rule comes second,
	// so declaration order, not specificity, must decide overlaps.
	reg.SetCIDRs([]tenant.CIDRRule{
		mustRule("10.0.0.0/8=a"),
		mustRule("10.9.0.0/16=b"),
		mustRule("192.168.1.0/24=b"),
	})
	inA := pcap.FlowKey{SrcIP: 0x0a090101, DstIP: 0x01020304, SrcPort: 1, DstPort: 2}
	if got := reg.Tag(inA); got != 0 {
		t.Fatalf("latent rule tagged %d before tenant exists", got)
	}

	ta, _, err := reg.Put("a", tenant.PutSpec{NewRunner: factory(alpha)})
	if err != nil {
		t.Fatal(err)
	}
	tb, _, err := reg.Put("b", tenant.PutSpec{NewRunner: factory(alpha)})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Tag(inA); got != ta.Index() {
		t.Fatalf("10.9/16 flow tagged %d, want first-match tenant a (%d)", got, ta.Index())
	}
	// Destination-address match when the source misses.
	dstB := pcap.FlowKey{SrcIP: 0x01020304, DstIP: 0xc0a80105, SrcPort: 1, DstPort: 2}
	if got := reg.Tag(dstB); got != tb.Index() {
		t.Fatalf("dst-classified flow tagged %d, want %d", got, tb.Index())
	}
	// No rule: default set.
	if got := reg.Tag(pcap.FlowKey{SrcIP: 0x08080808, DstIP: 0x08080404}); got != 0 {
		t.Fatalf("unmatched flow tagged %d, want 0", got)
	}

	if err := reg.Delete("a"); err != nil {
		t.Fatal(err)
	}
	// a's rule is latent again; the overlapping b rule takes over.
	if got := reg.Tag(inA); got != tb.Index() {
		t.Fatalf("after delete, 10.9/16 flow tagged %d, want %d", got, tb.Index())
	}
}

func TestAdminCRUD(t *testing.T) {
	def := buildMFA(t, "default")
	var mu sync.Mutex
	var got []engine.Match
	reg, e := serving(t, tenant.Config{}, engine.Config{Shards: 2}, def, func(m engine.Match) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	defer e.Close()
	srv := httptest.NewServer(reg.AdminHandler(compileRules))
	defer srv.Close()

	do := func(method, path, body string) (int, string) {
		t.Helper()
		var rd *strings.Reader
		if body != "" {
			rd = strings.NewReader(body)
		} else {
			rd = strings.NewReader("")
		}
		req, err := http.NewRequest(method, srv.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	code, body := do(http.MethodGet, "/tenants", "")
	if code != 200 || !strings.Contains(body, "\"tenants\"") {
		t.Fatalf("empty list: %d %q", code, body)
	}

	rules := "# acme rules\nalpha.*mark\nspotted\n"
	code, body = do(http.MethodPut, "/tenants/acme/rules?max-flows=100", rules)
	if code != 200 {
		t.Fatalf("PUT: %d %q", code, body)
	}
	var put struct {
		Tenant     string `json:"tenant"`
		Index      uint32 `json:"index"`
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal([]byte(body), &put); err != nil {
		t.Fatalf("PUT response %q: %v", body, err)
	}
	if put.Tenant != "acme" || put.Generation != 1 {
		t.Fatalf("PUT response %+v", put)
	}

	// Round-trips.
	if code, body = do(http.MethodGet, "/tenants/acme/rules", ""); code != 200 || body != rules {
		t.Fatalf("rules round-trip: %d %q", code, body)
	}
	code, body = do(http.MethodGet, "/tenants/acme", "")
	var st tenant.Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("stats %d %q: %v", code, body, err)
	}
	if st.Rules != 2 || st.MaxFlows != 100 || st.Index != put.Index {
		t.Fatalf("stats %+v", st)
	}

	// The installed set serves traffic.
	ten := reg.ByID("acme")
	send := func(n int, payload string) {
		t.Helper()
		seg := pcap.Segment{Key: tkey(ten.Index(), n), Seq: 0, Flags: pcap.FlagACK, Payload: []byte(payload)}
		if err := e.HandleSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	send(1, "an alpha quality mark and a spotted owl")
	waitFor(t, "first tenant matches", func() bool { return ten.Matches() == 2 })
	code, body = do(http.MethodGet, "/tenants/acme/events?n=10", "")
	if code != 200 || !strings.Contains(body, "\"events\"") || !strings.Contains(body, "\"pattern\"") {
		t.Fatalf("events: %d %q", code, body)
	}

	// The SelfCheck gate: a broken set answers 500 and the serving
	// generation keeps matching, untouched.
	code, body = do(http.MethodPut, "/tenants/acme/rules", "valid\n(broken\n")
	if code != 500 || !strings.Contains(body, "rules rejected") {
		t.Fatalf("broken PUT: %d %q", code, body)
	}
	if g := ten.Generation(); g != 1 {
		t.Fatalf("rejected PUT moved the generation to %d", g)
	}
	send(2, "another alpha banner mark here")
	waitFor(t, "post-rejection match", func() bool { return ten.Matches() == 3 })
	// Quota params are sticky across a PUT that omits them.
	if code, body = do(http.MethodPut, "/tenants/acme/rules", "spotted\n"); code != 200 {
		t.Fatalf("re-PUT: %d %q", code, body)
	}
	if q := ten.Quota(); q.MaxFlows != 100 {
		t.Fatalf("quota not sticky across PUT: %+v", q)
	}
	if g := ten.Generation(); g != 2 {
		t.Fatalf("accepted PUT did not advance the generation: %d", g)
	}

	if code, body = do(http.MethodDelete, "/tenants/acme", ""); code != 200 {
		t.Fatalf("DELETE: %d %q", code, body)
	}
	if code, _ = do(http.MethodGet, "/tenants/acme", ""); code != 404 {
		t.Fatalf("GET after delete: %d", code)
	}
	if code, _ = do(http.MethodDelete, "/tenants/acme", ""); code != 404 {
		t.Fatalf("double DELETE: %d", code)
	}
	if code, body = do(http.MethodDelete, "/tenants/default", ""); code != http.StatusForbidden {
		t.Fatalf("DELETE /tenants/default: %d %q, want 403", code, body)
	}
	if code, body = do(http.MethodPut, "/tenants/acme/rules?max-buffered=1Q", "x\n"); code != 400 {
		t.Fatalf("PUT with a bad size: %d %q, want 400", code, body)
	}
	if code, _ = do(http.MethodPut, "/tenants/bad/../id/rules", "x\n"); code == 200 {
		t.Fatal("path-mangled PUT accepted")
	}
}

// segment is one pre-built wire event for the equivalence tests so the
// multi-tenant engine and the reference engines see byte-identical
// traffic in identical order.
type segment struct {
	seq     uint32
	flags   uint8
	payload []byte
}

// tenantTraffic chunks per-flow TextLike streams (salted with the rule
// words) into SYN + data segments, with adjacent data chunks swapped
// periodically to exercise out-of-order reassembly.
func tenantTraffic(t *testing.T, nFlows, flowBytes, chunk int, words []string, salt int64) [][]segment {
	t.Helper()
	flows := make([][]segment, nFlows)
	for i := range flows {
		payload := trace.TextLike(flowBytes, salt+int64(i*37), words, 0.03)
		segs := []segment{{seq: 0, flags: pcap.FlagSYN}}
		for off := 0; off < len(payload); off += chunk {
			end := off + chunk
			if end > len(payload) {
				end = len(payload)
			}
			segs = append(segs, segment{seq: uint32(1 + off), flags: pcap.FlagACK, payload: payload[off:end]})
		}
		// Swap every third adjacent data pair; never the SYN.
		for j := 2; j+1 < len(segs); j += 3 {
			segs[j], segs[j+1] = segs[j+1], segs[j]
		}
		flows[i] = segs
	}
	return flows
}

// matchSeqs reduces a match list to per-flow ordered "id@pos" sequences
// with the tenant tag stripped, the canonical form for comparing a
// tenant's stream against a single-tenant daemon's.
func matchSeqs(ms []engine.Match, ten uint32) map[pcap.FlowKey][]string {
	out := make(map[pcap.FlowKey][]string)
	for _, m := range ms {
		if m.Flow.Tenant != ten {
			continue
		}
		k := m.Flow
		k.Tenant = 0
		out[k] = append(out[k], fmt.Sprintf("%d@%d", m.ID, m.Pos))
	}
	return out
}

func equalSeqs(a, b map[pcap.FlowKey][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || len(va) != len(vb) {
			return false
		}
		for i := range va {
			if va[i] != vb[i] {
				return false
			}
		}
	}
	return true
}

// TestTwoTenantEquivalence is the ISSUE acceptance scenario: two
// tenants with disjoint rule sets served by one daemon must produce
// byte-identical (id, pos) match streams to two single-tenant daemons
// fed the same interleaved traffic. Run under -race in CI.
func TestTwoTenantEquivalence(t *testing.T) {
	def := buildMFA(t, "default")
	setA := buildMFA(t, "alpha.*mark", "spotted")
	setB := buildMFA(t, "bravo[0-9]+", "spotted")

	const nFlows, flowBytes, chunk = 8, 6 << 10, 512
	trafficA := tenantTraffic(t, nFlows, flowBytes, chunk, []string{"alpha", "mark", "spotted"}, 1000)
	trafficB := tenantTraffic(t, nFlows, flowBytes, chunk, []string{"bravo77", "spotted"}, 5000)

	// The daemon under test: one engine, two tenants.
	var mu sync.Mutex
	var multi []engine.Match
	reg, e := serving(t, tenant.Config{}, engine.Config{Shards: 4}, def, func(m engine.Match) {
		mu.Lock()
		multi = append(multi, m)
		mu.Unlock()
	})
	ta, _, err := reg.Put("alpha", tenant.PutSpec{NewRunner: factory(setA)})
	if err != nil {
		t.Fatal(err)
	}
	tb, _, err := reg.Put("bravo", tenant.PutSpec{NewRunner: factory(setB)})
	if err != nil {
		t.Fatal(err)
	}

	// The reference: two single-tenant daemons, one per rule set.
	var refA, refB []engine.Match
	var muA, muB sync.Mutex
	eA := engine.New(engine.Config{Shards: 4}, factory(setA), func(m engine.Match) {
		muA.Lock()
		refA = append(refA, m)
		muA.Unlock()
	})
	eB := engine.New(engine.Config{Shards: 4}, factory(setB), func(m engine.Match) {
		muB.Lock()
		refB = append(refB, m)
		muB.Unlock()
	})

	// One interleaved schedule drives all three daemons: round-robin
	// across both tenants' flows, tagged for the multi-tenant engine,
	// untagged for the per-tenant references.
	send := func(eng *engine.Engine, ten uint32, flowN int, s segment) {
		t.Helper()
		key := tkey(ten, flowN)
		err := eng.HandleSegment(pcap.Segment{Key: key, Seq: s.seq, Flags: s.flags, Payload: s.payload})
		if err != nil {
			t.Fatal(err)
		}
	}
	maxLen := 0
	for _, f := range trafficA {
		if len(f) > maxLen {
			maxLen = len(f)
		}
	}
	for step := 0; step < maxLen; step++ {
		for i := 0; i < nFlows; i++ {
			if step < len(trafficA[i]) {
				send(e, ta.Index(), i, trafficA[i][step])
				send(eA, 0, i, trafficA[i][step])
			}
			if step < len(trafficB[i]) {
				send(e, tb.Index(), i, trafficB[i][step])
				send(eB, 0, i, trafficB[i][step])
			}
		}
	}
	for _, eng := range []*engine.Engine{e, eA, eB} {
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}

	wantA, wantB := matchSeqs(refA, 0), matchSeqs(refB, 0)
	if len(refA) == 0 || len(refB) == 0 {
		t.Fatalf("reference daemons found %d/%d matches; test would be vacuous", len(refA), len(refB))
	}
	if got := matchSeqs(multi, ta.Index()); !equalSeqs(wantA, got) {
		t.Errorf("tenant alpha diverges from its single-tenant daemon: ref %d matches, multi %d", len(refA), len(multi))
	}
	if got := matchSeqs(multi, tb.Index()); !equalSeqs(wantB, got) {
		t.Errorf("tenant bravo diverges from its single-tenant daemon: ref %d matches, multi %d", len(refB), len(multi))
	}
	// No leakage across rule sets: every multi-engine match belongs to
	// one of the two tenants, and the per-tenant counters agree.
	if got := matchSeqs(multi, 0); len(got) != 0 {
		t.Errorf("%d flows matched on the default set; traffic was all tagged", len(got))
	}
	if ta.Matches() != int64(len(refA)) || tb.Matches() != int64(len(refB)) {
		t.Errorf("tenant counters (%d, %d) disagree with references (%d, %d)",
			ta.Matches(), tb.Matches(), len(refA), len(refB))
	}
	st := e.Stats()
	if st.TenantDrops != 0 || st.UnknownTenantDrops != 0 {
		t.Errorf("unexpected tenant drops: %+v", st)
	}
}

// TestQuotaDegradationIsolation is the second acceptance scenario: a
// tenant driven past its max-flows quota sheds its own traffic, with
// drops accounted under its label, while the other tenant stays at
// tier-0 service and loses nothing.
func TestQuotaDegradationIsolation(t *testing.T) {
	def := buildMFA(t, "default")
	noisyM := buildMFA(t, "flood")
	quietM := buildMFA(t, "quiet")

	var mu sync.Mutex
	var got []engine.Match
	reg, e := serving(t, tenant.Config{}, engine.Config{Shards: 2}, def, func(m engine.Match) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	noisy, _, err := reg.Put("noisy", tenant.PutSpec{
		NewRunner: factory(noisyM),
		Quota:     tenant.Quota{MaxFlows: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	quiet, _, err := reg.Put("quiet", tenant.PutSpec{NewRunner: factory(quietM)})
	if err != nil {
		t.Fatal(err)
	}

	// 64 distinct noisy flows against a 4-flow quota, interleaved with
	// 16 quiet flows that must all be served.
	const noisyFlows, quietFlows = 64, 16
	for i := 0; i < noisyFlows; i++ {
		seg := pcap.Segment{Key: tkey(noisy.Index(), i), Seq: 0, Flags: pcap.FlagACK, Payload: []byte("flood payload........")}
		if err := e.HandleSegment(seg); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			q := i / 4
			seg := pcap.Segment{Key: tkey(quiet.Index(), 1000+q), Seq: 0, Flags: pcap.FlagACK, Payload: []byte("a quiet word passes")}
			if err := e.HandleSegment(seg); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	nst, qst := noisy.Stats(), quiet.Stats()
	if nst.FlowQuotaDrops != noisyFlows-4 {
		t.Fatalf("noisy tenant: %d flow-quota drops, want %d", nst.FlowQuotaDrops, noisyFlows-4)
	}
	if nst.LiveFlows != 4 {
		t.Fatalf("noisy tenant holds %d live flows past a quota of 4", nst.LiveFlows)
	}
	if qst.FlowQuotaDrops != 0 || qst.ByteQuotaDrops != 0 {
		t.Fatalf("quiet tenant took drops: %+v", qst)
	}
	if qst.Matches != quietFlows || qst.LiveFlows != quietFlows {
		t.Fatalf("quiet tenant served %d matches on %d flows, want %d on %d", qst.Matches, qst.LiveFlows, quietFlows, quietFlows)
	}
	st := e.Stats()
	if st.TenantDrops != noisyFlows-4 {
		t.Fatalf("engine accounts %d tenant drops, want %d", st.TenantDrops, noisyFlows-4)
	}
	if st.Tier != engine.TierNormal || st.HardDrops != 0 || st.QueueDrops != 0 {
		t.Fatalf("quota overrun degraded global service: %+v", st)
	}
}

// The governor must bill a tenant's reassembly bytes once: to its
// "tenant:<id>" component, not also to the engine's. With all traffic
// tagged and nothing unleased queued — the normal state of a tagged
// daemon — the engine's own share is zero.
func TestTenantBytesAreBilledOnce(t *testing.T) {
	reg, e := serving(t, tenant.Config{}, engine.Config{Shards: 1}, buildMFA(t, "default"), nil)
	defer e.Close()
	ten, _, err := reg.Put("acme", tenant.PutSpec{NewRunner: factory(buildMFA(t, "alpha"))})
	if err != nil {
		t.Fatal(err)
	}
	k := tkey(ten.Index(), 1)
	for _, seg := range []pcap.Segment{
		{Key: k, Seq: 0, Flags: pcap.FlagSYN},
		{Key: k, Seq: 1001, Flags: pcap.FlagACK, Payload: make([]byte, 500)}, // a gap before it: buffered
	} {
		if err := e.HandleSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the out-of-order segment to be buffered", func() bool { return ten.Stats().BufferedBytes == 500 })
	waitFor(t, "the queue to drain", func() bool { return e.Stats().QueuedBytes == 0 })
	if got := e.MemoryUsage(); got != 0 {
		t.Fatalf("engine component reports %d bytes beside the tenant component's 500, want 0", got)
	}
	// An untagged flow's buffer is the engine's to bill.
	if err := e.HandleSegment(pcap.Segment{Key: tkey(0, 2), Seq: 1001, Flags: pcap.FlagACK, Payload: make([]byte, 300)}); err != nil {
		t.Fatal(err)
	}
	if err := e.HandleSegment(pcap.Segment{Key: tkey(0, 2), Seq: 5001, Flags: pcap.FlagACK, Payload: make([]byte, 300)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the engine's own share", func() bool { return e.MemoryUsage() == 300 })
}

// The reserved default entry: index 0, first in the list, numbered by
// the same counter as the engine's own Reload, unquota'd, undeletable.
func TestDefaultEntry(t *testing.T) {
	metrics := telemetry.NewRegistry()
	reg := tenant.NewRegistry(tenant.Config{Metrics: metrics})
	e := engine.New(engine.Config{Shards: 2, Tenants: reg, Metrics: metrics}, nil, nil)
	reg.Bind(e)
	defer e.Close()
	if g := e.Generation(); g != 0 || reg.Lookup(0) != nil {
		t.Fatalf("before the first Put: generation %d, Lookup(0) = %v", g, reg.Lookup(0))
	}
	if _, _, err := reg.Put("acme", tenant.PutSpec{NewRunner: factory(buildMFA(t, "alpha"))}); err != nil {
		t.Fatal(err)
	}
	def, gen, err := reg.Put(tenant.DefaultID, tenant.PutSpec{NewRunner: factory(buildMFA(t, "default")), Sources: []string{"default"}})
	if err != nil {
		t.Fatal(err)
	}
	if def.Index() != 0 || gen != 1 || reg.Lookup(0) != def || e.Generation() != 1 {
		t.Fatalf("default entry got (idx=%d, gen=%d), engine generation %d; want (0, 1), 1", def.Index(), gen, e.Generation())
	}
	if g, err := e.Reload(factory(buildMFA(t, "other")), false); err != nil || g != 2 {
		t.Fatalf("engine.Reload after the default Put: generation %d, %v; want 2", g, err)
	}
	if _, gen, err = reg.Put(tenant.DefaultID, tenant.PutSpec{NewRunner: factory(buildMFA(t, "third"))}); err != nil || gen != 3 || def.Generation() != 3 {
		t.Fatalf("second default Put: generation %d (%d on the entry), %v; want 3", gen, def.Generation(), err)
	}
	if list := reg.List(); len(list) != 2 || list[0].ID != tenant.DefaultID || list[1].ID != "acme" || list[1].Index != 1 {
		t.Fatalf("List = %+v, want default then acme", list)
	}
	if _, _, err := reg.Put(tenant.DefaultID, tenant.PutSpec{NewRunner: factory(buildMFA(t, "x")), Quota: tenant.Quota{MaxFlows: 1}}); err == nil {
		t.Error("a quota on the default entry was accepted")
	}
	if err := reg.Delete(tenant.DefaultID); !errors.Is(err, tenant.ErrDefault) {
		t.Errorf("Delete(default) = %v, want ErrDefault", err)
	}
	if err := reg.Delete("ghost"); !errors.Is(err, tenant.ErrUnknown) {
		t.Errorf("Delete(ghost) = %v, want ErrUnknown", err)
	}
	// Untagged traffic is accounted engine-wide, never under a tenant label.
	if snap := metrics.Snapshot(); snap.Value("mfa_generation") != 3 {
		t.Errorf("mfa_generation = %v, want 3", snap.Value("mfa_generation"))
	}
	var buf bytes.Buffer
	if err := metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `tenant="default"`) {
		t.Error("the default entry registered tenant-labelled series")
	}
}

// closedSwapper fails every swap, as an engine that has begun closing does.
type closedSwapper struct{ tenant.Swapper }

func (closedSwapper) ReloadTenant(*tenant.Tenant, func() flow.Runner, bool) (uint64, error) {
	return 0, engine.ErrClosed
}

// Put's promise: when the swap fails, the tenant still reports the quota
// and rule text of the set that is still serving.
func TestFailedPutChangesNothing(t *testing.T) {
	reg, e := serving(t, tenant.Config{}, engine.Config{Shards: 1}, buildMFA(t, "default"), nil)
	defer e.Close()
	ten, _, err := reg.Put("acme", tenant.PutSpec{
		NewRunner: factory(buildMFA(t, "alpha")), Sources: []string{"alpha"}, Rules: []byte("alpha\n"), Quota: tenant.Quota{MaxFlows: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg.Bind(closedSwapper{e})
	for _, id := range []string{"acme", "fresh"} {
		_, _, err := reg.Put(id, tenant.PutSpec{
			NewRunner: factory(buildMFA(t, "bravo")), Sources: []string{"bravo"}, Rules: []byte("bravo\n"), Quota: tenant.Quota{MaxFlows: 1},
		})
		if !errors.Is(err, engine.ErrClosed) {
			t.Fatalf("Put(%s) on a closed engine = %v, want ErrClosed", id, err)
		}
	}
	if string(ten.Rules()) != "alpha\n" || ten.Sources()[0] != "alpha" || ten.Quota().MaxFlows != 9 || ten.Generation() != 1 {
		t.Errorf("a failed Put changed the tenant: rules %q, sources %q, quota %+v, generation %d",
			ten.Rules(), ten.Sources(), ten.Quota(), ten.Generation())
	}
	if reg.ByID("fresh") != nil || len(reg.List()) != 1 {
		t.Error("a failed Put registered its tenant")
	}
	reg.Bind(e)
	if fresh, _, err := reg.Put("fresh", tenant.PutSpec{NewRunner: factory(buildMFA(t, "bravo"))}); err != nil || fresh.Index() != 2 {
		t.Errorf("Put after the failure: index %d, %v; want the index the failed Put did not burn", fresh.Index(), err)
	}
}

// One size grammar, one quota grammar: 0 parses everywhere and means
// unlimited to a quota.
func TestSizesAndQuotaOptions(t *testing.T) {
	for in, want := range map[string]int64{"0": 0, "1": 1, "512": 512, "4k": 4 << 10, "4K": 4 << 10, "64M": 64 << 20, "1g": 1 << 30} {
		if got, err := tenant.ParseSize(in); err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "K", "-1", "1.5M", "12X", "M1"} {
		if n, err := tenant.ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) = %d, want an error", bad, n)
		}
	}
	var q tenant.Quota
	for _, kv := range [][2]string{{"max-flows", "7"}, {"max-buffered", "1M"}} {
		if err := q.Set(kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	if q != (tenant.Quota{MaxFlows: 7, MaxBufferedBytes: 1 << 20}) {
		t.Errorf("quota = %+v", q)
	}
	for _, kv := range [][2]string{{"max-flows", "0"}, {"max-buffered", "0"}} {
		if err := q.Set(kv[0], kv[1]); err != nil {
			t.Errorf("Set(%s=0): %v; 0 is unlimited", kv[0], err)
		}
	}
	if q != (tenant.Quota{}) {
		t.Errorf("quota after zeroing = %+v", q)
	}
	for _, kv := range [][2]string{{"max-flows", "-1"}, {"max-flows", "many"}, {"max-buffered", "-1"}, {"max-buffered", "1Q"}, {"max-flow", "1"}, {"", ""}} {
		if err := q.Set(kv[0], kv[1]); err == nil {
			t.Errorf("Set(%q, %q) accepted", kv[0], kv[1])
		}
	}
}

// TestLifecycleRace drives concurrent admin CRUD (direct and over
// HTTP), per-tenant reloads and live tagged traffic through one engine.
// Run under -race; the assertions are liveness and accounting, the
// detector does the heavy lifting.
func TestLifecycleRace(t *testing.T) {
	def := buildMFA(t, "default")
	alpha := buildMFA(t, "alpha")
	bravo := buildMFA(t, "bravo")
	reg, e := serving(t, tenant.Config{}, engine.Config{Shards: 4, QueueDepth: 256}, def, nil)
	srv := httptest.NewServer(reg.AdminHandler(compileRules))
	defer srv.Close()

	const tenants = 3
	var sent atomic.Int64
	stop := make(chan struct{})
	var wg, mutators sync.WaitGroup

	// Traffic: each producer sprays segments tagged with whatever index
	// its tenant currently has (or had — stale tags must drop cleanly,
	// never crash or misroute).
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var idx uint32
				if ten := reg.ByID(fmt.Sprintf("t%d", i%tenants)); ten != nil {
					idx = ten.Index()
				}
				seg := pcap.Segment{
					Key:     tkey(idx, p*100+i%7),
					Seq:     uint32(i * 20),
					Flags:   pcap.FlagACK,
					Payload: []byte("alpha bravo default."),
				}
				if err := e.HandleSegment(seg); err != nil {
					t.Errorf("HandleSegment: %v", err)
					return
				}
				sent.Add(1)
			}
		}(p)
	}

	// Mutators: create/reload/delete each tenant id in a loop, half via
	// the registry API, half via admin HTTP PUT/DELETE.
	iters := 30
	if testing.Short() {
		iters = 8
	}
	for w := 0; w < tenants; w++ {
		mutators.Add(1)
		go func(w int) {
			defer mutators.Done()
			id := fmt.Sprintf("t%d", w)
			for i := 0; i < iters; i++ {
				m := alpha
				if i%2 == 0 {
					m = bravo
				}
				if w%2 == 0 {
					if _, _, err := reg.Put(id, tenant.PutSpec{NewRunner: factory(m), Reset: i%3 == 0}); err != nil {
						t.Errorf("Put %s: %v", id, err)
					}
				} else {
					req, _ := http.NewRequest(http.MethodPut, srv.URL+"/tenants/"+id+"/rules", strings.NewReader("alpha\nbravo\n"))
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Errorf("PUT %s: %v", id, err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != 200 {
						t.Errorf("PUT %s: status %d", id, resp.StatusCode)
					}
				}
				if i%5 == 4 {
					if w%2 == 0 {
						_ = reg.Delete(id)
					} else {
						req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/tenants/"+id, nil)
						if resp, err := http.DefaultClient.Do(req); err == nil {
							resp.Body.Close()
						}
					}
				}
			}
			// Leave the tenant serving so post-race traffic has a target.
			if _, _, err := reg.Put(id, tenant.PutSpec{NewRunner: factory(alpha)}); err != nil {
				t.Errorf("final Put %s: %v", id, err)
			}
		}(w)
	}

	// Concurrent readers over the snapshot surfaces.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			reg.List()
			reg.BufferedBytes()
			reg.Tag(tkey(0, i%5))
			e.Stats()
		}
	}()

	// Let the bounded mutators finish first, then stop traffic/readers.
	mutators.Wait()
	close(stop)
	wg.Wait()

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.ShardPanics != 0 || st.UnhealthyShards != 0 {
		t.Fatalf("lifecycle churn broke a shard: %+v", st)
	}
	// Every dispatched segment is scanned or accounted in exactly one
	// drop bucket; stale-tag drops land in the tenant buckets.
	accounted := st.Packets + st.QueueDrops + st.HardDrops + st.PoisonedDrops +
		st.UnhealthyDrops + st.WedgeDrops + st.UnknownTenantDrops
	if accounted != sent.Load() {
		t.Fatalf("accounting identity broken: sent %d, accounted %d (%+v)", sent.Load(), accounted, st)
	}
	if len(reg.List()) != tenants {
		t.Fatalf("%d tenants registered at exit, want %d", len(reg.List()), tenants)
	}
}
