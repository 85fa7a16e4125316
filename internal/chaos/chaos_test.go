//go:build chaos

package chaos

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"matchfilter/internal/core"
	"matchfilter/internal/engine"
	"matchfilter/internal/faultinject"
	"matchfilter/internal/flow"
	"matchfilter/internal/guard"
	"matchfilter/internal/input"
	"matchfilter/internal/leakcheck"
	"matchfilter/internal/pcap"
	"matchfilter/internal/regexparse"
	"matchfilter/internal/tenant"
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
	return m
}

func chaosKey(n int) pcap.FlowKey {
	return pcap.FlowKey{
		SrcIP:   0x0a000000 | uint32(n+1),
		DstIP:   0xc0a80101,
		SrcPort: uint16(10000 + n),
		DstPort: 80,
	}
}

// waitFor polls cond with a generous wall bound; the individual tests
// assert the tighter timing invariants themselves. It yields rather than
// sleeps between polls: it waits on engine progress.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// assertIdentity is the bookkeeping invariant every scenario ends on:
// each successfully dispatched segment is scanned or counted in exactly
// one drop bucket.
func assertIdentity(t *testing.T, st engine.Stats, sent int64) {
	t.Helper()
	accounted := st.Packets + st.QueueDrops + st.HardDrops +
		st.PoisonedDrops + st.UnhealthyDrops + st.WedgeDrops
	if accounted != sent {
		t.Fatalf("accounting identity broken: sent %d, accounted %d (%+v)", sent, accounted, st)
	}
}

func scaled(n int) int {
	if testing.Short() {
		return n / 4
	}
	return n
}

// TestStallStorm drives several flows into mid-scan stalls under
// background load: the watchdog must detect each stuck scan within its
// deadline, sibling traffic must keep flowing, and once the stalls
// clear the offending flows are quarantined, the engine returns to
// healthy, and the books balance.
func TestStallStorm(t *testing.T) {
	leakcheck.Check(t)
	m := buildMFA(t, "attack")
	gate := make(chan struct{})
	const deadline = 10 * time.Millisecond
	e := engine.New(engine.Config{
		Shards: 4, QueueDepth: 64, DropWhenFull: true,
		StallDeadline: deadline,
	}, func() flow.Runner {
		return faultinject.StallOn([]byte("LOCKUP"), gate, m.NewRunner())
	}, nil)

	var sent atomic.Int64
	send := func(key pcap.FlowKey, seq uint32, payload string) {
		err := e.HandleSegment(pcap.Segment{Key: key, Seq: seq, Flags: pcap.FlagACK, Payload: []byte(payload)})
		if err == nil {
			sent.Add(1)
		} else if !errors.Is(err, engine.ErrClosed) {
			t.Errorf("HandleSegment: %v", err)
		}
	}

	// Background load on clean flows, poison pills on four others.
	bg := scaled(1600)
	for i := 0; i < 4; i++ {
		send(chaosKey(100+i), 0, "about to LOCKUP hard")
	}
	detect := time.Now()
	for i := 0; i < bg; i++ {
		send(chaosKey(i%16), uint32(i/16*24), "background attack data....")
	}

	waitFor(t, "watchdog fire", func() bool { return e.Stats().StallFires >= 1 })
	if took := time.Since(detect); took > 40*deadline {
		t.Fatalf("watchdog took %v to fire with a %v deadline", took, deadline)
	}
	st := e.Stats()
	if st.StallsRecovered != 0 {
		t.Fatalf("stall recovered while still stuck: %+v", st)
	}

	close(gate)
	waitFor(t, "stall recovery", func() bool {
		st := e.Stats()
		return st.StallsRecovered >= 1 && st.QueuedBytes == 0
	})
	// Recovered: fresh traffic on a clean flow still scans. Stats
	// snapshots publish every 64 segments per shard, so send a full
	// batch to observe the progress.
	before := e.Stats().Packets
	for i := 0; i < 256; i++ {
		send(chaosKey(77+i%4), uint32(i/4*20), "post-recovery attack")
	}
	waitFor(t, "post-recovery scan", func() bool { return e.Stats().Packets > before })

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.UnhealthyShards != 0 || st.WedgedShards != 0 || st.ShardPanics != 0 {
		t.Fatalf("did not recover to healthy: %+v", st)
	}
	if st.PoisonedFlows < 1 || st.PoisonedFlows != st.StallsRecovered {
		t.Fatalf("stalled flows not quarantined 1:1 with recoveries: %+v", st)
	}
	assertIdentity(t, st, sent.Load())
}

// TestPanicStorm hits the crash-recovery path from many flows at once:
// every panicking flow is quarantined exactly once, clean flows keep
// matching, shards stay healthy under the budget, and the books
// balance.
func TestPanicStorm(t *testing.T) {
	leakcheck.Check(t)
	m := buildMFA(t, "attack")
	e := engine.New(engine.Config{
		Shards: 2, QueueDepth: 64, DropWhenFull: true,
	}, func() flow.Runner {
		return faultinject.PanicOn([]byte("BOOM"), m.NewRunner())
	}, nil)

	var sent int64
	const bad = 8
	rounds := scaled(40)
	for r := 0; r < rounds; r++ {
		for i := 0; i < 32; i++ {
			payload := "clean attack payload......"
			if i < bad && r == 0 {
				payload = "this one goes BOOM now...."
			}
			seg := pcap.Segment{Key: chaosKey(i), Seq: uint32(r * 26), Flags: pcap.FlagACK, Payload: []byte(payload)}
			if err := e.HandleSegment(seg); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.ShardPanics != bad || st.PoisonedFlows != bad {
		t.Fatalf("want %d panics quarantining %d flows, got %d/%d", bad, bad, st.ShardPanics, st.PoisonedFlows)
	}
	if st.UnhealthyShards != 0 {
		t.Fatalf("shards went unhealthy under the crash budget: %+v", st)
	}
	if st.Matches == 0 {
		t.Fatal("clean flows stopped matching during the panic storm")
	}
	assertIdentity(t, st, sent)
}

// TestMalformedBurst feeds a seeded wire-fault schedule — truncation,
// bit flips, reordering, drops — through the frame-decode entry point.
// The engine must never panic: bad frames are rejected or skipped and
// counted, surviving frames are scanned, and the books balance.
func TestMalformedBurst(t *testing.T) {
	leakcheck.Check(t)
	m := buildMFA(t, "attack")
	e := engine.New(engine.Config{Shards: 2, QueueDepth: 64, DropWhenFull: true},
		func() flow.Runner { return m.NewRunner() }, nil)
	inj := faultinject.New(faultinject.Config{
		Seed: 42, TruncateProb: 0.2, CorruptProb: 0.2, ReorderProb: 0.1, DropProb: 0.1,
	})

	var accepted, rejected int64
	feed := func(frame []byte) {
		if err := e.HandleFrame(frame); err != nil {
			rejected++
		} else {
			accepted++
		}
	}
	frames := scaled(2000)
	for i := 0; i < frames; i++ {
		frame := pcap.EncodeTCP(chaosKey(i%8), uint32(i/8*20), pcap.FlagACK, []byte("burst attack payload"))
		for _, f := range inj.Frame(frame) {
			feed(f)
		}
	}
	for _, f := range inj.Flush() {
		feed(f)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	ist := inj.Stats()
	if ist.Truncated == 0 || ist.Corrupted == 0 || ist.Dropped == 0 {
		t.Fatalf("schedule applied no faults — test is vacuous: %+v", ist)
	}
	st := e.Stats()
	if st.ShardPanics != 0 || st.UnhealthyShards != 0 {
		t.Fatalf("malformed input crashed the engine: %+v", st)
	}
	if st.Matches == 0 {
		t.Fatal("no surviving frame matched; corruption rates ate the whole burst")
	}
	// Accepted frames were dispatched as segments or skipped as non-TCP.
	assertIdentity(t, st, accepted-st.SkippedFrames)
	_ = rejected // rejected frames never reached a shard; nothing to account
}

// TestReloadUnderPressure hot-swaps the pattern generation repeatedly
// while producers hammer the engine: every reload must land (monotonic
// generations), traffic must keep scanning throughout, and the books
// balance at the end.
func TestReloadUnderPressure(t *testing.T) {
	leakcheck.Check(t)
	m1 := buildMFA(t, "aaa")
	m2 := buildMFA(t, "bbb")
	e := engine.New(engine.Config{Shards: 2, QueueDepth: 64, DropWhenFull: true},
		func() flow.Runner { return m1.NewRunner() }, nil)

	var sent atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			payload := []byte("aaa and bbb both here...")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				seg := pcap.Segment{Key: chaosKey(p), Seq: uint32(i * len(payload)), Flags: pcap.FlagACK, Payload: payload}
				switch err := e.HandleSegment(seg); {
				case err == nil:
					sent.Add(1)
				case errors.Is(err, engine.ErrClosed):
					return
				default:
					t.Errorf("HandleSegment: %v", err)
					return
				}
			}
		}(p)
	}

	reloads := scaled(20)
	lastGen := e.Generation()
	for i := 0; i < reloads; i++ {
		m := m1
		if i%2 == 0 {
			m = m2
		}
		gen, err := e.Reload(func() flow.Runner { return m.NewRunner() }, true)
		if err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
		if gen <= lastGen {
			t.Fatalf("reload %d: generation went %d -> %d", i, lastGen, gen)
		}
		lastGen = gen
		// The next reload lands on fresh traffic: wait for the shards to
		// scan more of it.
		before := e.Stats().Packets
		waitFor(t, "traffic between reloads", func() bool { return e.Stats().Packets > before })
	}
	close(stop)
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Matches == 0 {
		t.Fatal("no matches across the reload storm")
	}
	if st.ShardPanics != 0 || st.UnhealthyShards != 0 {
		t.Fatalf("reload storm broke a shard: %+v", st)
	}
	assertIdentity(t, st, sent.Load())
}

// burstSource leases hard and fast on one flow — the memory-pressure
// generator for the governor scenario.
type burstSource struct {
	name  string
	segs  int
	lease int
}

func (b *burstSource) Describe() input.Description {
	return input.Description{Name: b.name, Kind: "mem", Detail: "chaos", Finite: true}
}

func (b *burstSource) Run(ctx context.Context, em *input.Emitter) error {
	key := chaosKey(1)
	for i := 0; i < b.segs; i++ {
		lease := em.Lease(b.lease)
		seg := pcap.Segment{Key: key, Seq: uint32(i * b.lease), Flags: pcap.FlagACK, Payload: lease.Data()}
		if err := em.Segment(seg, lease); err != nil {
			return err
		}
	}
	return nil
}

// TestGovernorPlateauUnderStall is the -max-memory acceptance scenario
// end to end: the engine is wedged mid-scan, a source bursts far more
// payload than the ceiling, and the governor must pause leasing at the
// admission gate so total buffered memory plateaus below the limit —
// then everything drains once the stall clears.
func TestGovernorPlateauUnderStall(t *testing.T) {
	leakcheck.Check(t)
	const limit = 256 << 10
	gate := make(chan struct{})
	// Deep queues: with the shard stalled, leased segments pile up in
	// the shard and handoff queues — the queues alone could hold ~1M of
	// leases, so only the governor keeps the plateau under the ceiling.
	e := engine.New(engine.Config{Shards: 1, QueueDepth: 256, SoftWatermark: 1.1, HardWatermark: 1.2},
		func() flow.Runner { return faultinject.Stall(gate, faultinject.Discard) }, nil)
	arena := &input.Arena{}
	gov := guard.NewGovernor(limit, nil)
	gov.Register("arena", arena.BytesLeased)
	gov.Register("engine", e.MemoryUsage)

	// 4x the ceiling worth of leases.
	src := &burstSource{name: "burst", segs: scaled(512), lease: 2 << 10}
	sup := input.NewSupervisor(input.Config{Sink: e, Arena: arena, Governor: gov, QueueDepth: 256})
	sup.Add(src)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- sup.Run(ctx) }()

	waitFor(t, "governor pause", func() bool { return gov.Stats().Pauses >= 1 })
	if usage := gov.Usage(); usage > limit {
		t.Fatalf("buffered memory %d exceeded the %d ceiling while paused", usage, limit)
	}

	// Clear the stall; sample the plateau while the burst drains.
	close(gate)
	var maxUsage int64
	for {
		if u := gov.Usage(); u > maxUsage {
			maxUsage = u
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if maxUsage > limit {
				t.Fatalf("buffered memory peaked at %d, above the %d ceiling", maxUsage, limit)
			}
			if leased := arena.BytesLeased(); leased != 0 {
				t.Fatalf("arena still holds %d bytes after drain", leased)
			}
			st := e.Stats()
			if st.QueuedBytes != 0 {
				t.Fatalf("engine still accounts %d queued bytes after Close", st.QueuedBytes)
			}
			assertIdentity(t, st, sup.Stats()[0].Segments)
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// TestNoisyTenantIsolation is the multi-tenant blast-radius scenario:
// one tenant floods far past its flow and byte quotas while a quiet
// tenant's deterministic stream rides the same shards. The quiet
// tenant's match stream must be exactly what a single-tenant daemon
// produces for the same schedule, the noisy tenant's overrun must be
// shed under its own label, global service must stay at tier 0, and
// the books — now including the tenant drop buckets — must balance.
func TestNoisyTenantIsolation(t *testing.T) {
	leakcheck.Check(t)
	def := buildMFA(t, "attack")
	noisyM := buildMFA(t, "flood")
	quietM := buildMFA(t, "attack")

	// The quiet schedule is fixed up front so a reference single-tenant
	// engine can establish the expected match stream.
	type quietSeg struct {
		flowN   int
		seq     uint32
		payload string
	}
	quietFlows := 8
	segsPerFlow := scaled(200)
	var schedule []quietSeg
	for i := 0; i < segsPerFlow; i++ {
		for f := 0; f < quietFlows; f++ {
			schedule = append(schedule, quietSeg{
				flowN:   f,
				seq:     uint32(i * 26),
				payload: "quiet attack continues....",
			})
		}
	}

	type matchRec struct {
		flowN int
		id    int32
		pos   int64
	}
	collect := func(ms []engine.Match, ten uint32) map[pcap.FlowKey][]matchRec {
		out := make(map[pcap.FlowKey][]matchRec)
		for _, m := range ms {
			if m.Flow.Tenant != ten {
				continue
			}
			k := m.Flow
			k.Tenant = 0
			out[k] = append(out[k], matchRec{id: m.ID, pos: m.Pos})
		}
		return out
	}

	// Reference: the quiet schedule alone on a single-tenant daemon.
	var refMu sync.Mutex
	var ref []engine.Match
	refE := engine.New(engine.Config{Shards: 4}, func() flow.Runner { return quietM.NewRunner() },
		func(m engine.Match) { refMu.Lock(); ref = append(ref, m); refMu.Unlock() })
	for _, qs := range schedule {
		seg := pcap.Segment{Key: chaosKey(500 + qs.flowN), Seq: qs.seq, Flags: pcap.FlagACK, Payload: []byte(qs.payload)}
		if err := refE.HandleSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := refE.Close(); err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("reference schedule produced no matches; test would be vacuous")
	}

	// The daemon under chaos: quiet and noisy tenants on one engine.
	var mu sync.Mutex
	var got []engine.Match
	treg := tenant.NewRegistry(tenant.Config{})
	e := engine.New(engine.Config{Shards: 4, QueueDepth: 1024, Tenants: treg},
		func() flow.Runner { return def.NewRunner() },
		func(m engine.Match) { mu.Lock(); got = append(got, m); mu.Unlock() })
	treg.Bind(e)
	quiet, _, err := treg.Put("quiet", tenant.PutSpec{NewRunner: func() flow.Runner { return quietM.NewRunner() }})
	if err != nil {
		t.Fatal(err)
	}
	noisy, _, err := treg.Put("noisy", tenant.PutSpec{
		NewRunner: func() flow.Runner { return noisyM.NewRunner() },
		Quota:     tenant.Quota{MaxFlows: 8, MaxBufferedBytes: 4 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}

	var sent atomic.Int64
	send := func(key pcap.FlowKey, seq uint32, payload string) {
		if err := e.HandleSegment(pcap.Segment{Key: key, Seq: seq, Flags: pcap.FlagACK, Payload: []byte(payload)}); err != nil {
			t.Errorf("HandleSegment: %v", err)
			return
		}
		sent.Add(1)
	}

	// Seed the noisy tenant's full flow quota first so the flood below
	// deterministically targets admitted flows.
	for f := 0; f < 8; f++ {
		key := chaosKey(f)
		key.Tenant = noisy.Index()
		send(key, 0, "flood seed.")
	}
	// Dispatch is asynchronous; wait until the shards have admitted all
	// eight before the churn competes for the quota.
	waitFor(t, "noisy quota seeded", func() bool { return noisy.Stats().LiveFlows == 8 })

	// Noisy producers hammer concurrently: a flow churn far past the
	// 8-flow quota, plus a gapper spraying unique out-of-order segments
	// at the admitted flows to overrun the byte quota.
	var wg sync.WaitGroup
	noisySegs := scaled(4000)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < noisySegs; i++ {
			key := chaosKey(8 + i%512)
			key.Tenant = noisy.Index()
			send(key, uint32(i/512*26), "flood flood flood flood...")
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		gap := make([]byte, 256)
		copy(gap, "gapped flood payload")
		for j := 0; j < scaled(400); j++ {
			key := chaosKey(j % 8)
			key.Tenant = noisy.Index()
			if err := e.HandleSegment(pcap.Segment{Key: key, Seq: uint32(1<<20 + j*256), Flags: pcap.FlagACK, Payload: gap}); err != nil {
				t.Errorf("HandleSegment: %v", err)
				return
			}
			sent.Add(1)
		}
	}()
	// The quiet schedule interleaves with the flood.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, qs := range schedule {
			key := chaosKey(500 + qs.flowN)
			key.Tenant = quiet.Index()
			send(key, qs.seq, qs.payload)
		}
	}()
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// The quiet tenant's stream is byte-identical to the reference
	// daemon's: same flows, same (id, pos) sequence per flow.
	want, have := collect(ref, 0), collect(got, quiet.Index())
	if len(want) != len(have) {
		t.Fatalf("quiet tenant matched on %d flows, reference on %d", len(have), len(want))
	}
	for k, w := range want {
		h := have[k]
		if len(h) != len(w) {
			t.Fatalf("quiet flow %v: %d matches, reference %d", k, len(h), len(w))
		}
		for i := range w {
			if h[i] != w[i] {
				t.Fatalf("quiet flow %v diverges at %d: %+v vs %+v", k, i, h[i], w[i])
			}
		}
	}

	nst, qst := noisy.Stats(), quiet.Stats()
	if nst.FlowQuotaDrops == 0 || nst.ByteQuotaDrops == 0 {
		t.Fatalf("flood did not overrun both quotas — scenario too gentle: %+v", nst)
	}
	if qst.FlowQuotaDrops != 0 || qst.ByteQuotaDrops != 0 {
		t.Fatalf("quiet tenant took quota drops: %+v", qst)
	}
	if nst.LiveFlows > 8 {
		t.Fatalf("noisy tenant holds %d flows past its quota of 8", nst.LiveFlows)
	}
	st := e.Stats()
	if st.Tier != engine.TierNormal {
		t.Fatalf("noisy tenant degraded global service to tier %v", st.Tier)
	}
	if st.ShardPanics != 0 || st.UnhealthyShards != 0 || st.WedgedShards != 0 {
		t.Fatalf("tenant flood broke a shard: %+v", st)
	}
	if st.TenantDrops != nst.FlowQuotaDrops+nst.ByteQuotaDrops {
		t.Fatalf("engine tenant-drop bucket %d does not mirror the noisy tenant's %d+%d quota drops",
			st.TenantDrops, nst.FlowQuotaDrops, nst.ByteQuotaDrops)
	}
	// Books balance with the tenant buckets in: every dispatched segment
	// was scanned or counted in exactly one drop bucket. (Flow-quota
	// refusals are inside Packets; unknown-tenant dispatch drops are
	// their own bucket and must be zero here — both tenants stayed
	// published throughout.)
	if st.UnknownTenantDrops != 0 {
		t.Fatalf("published tenants took unknown-tenant drops: %+v", st)
	}
	assertIdentity(t, st, sent.Load())
}
