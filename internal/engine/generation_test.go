package engine

// The per-shard pending-command structure: one command per tenant index,
// however many swaps a shard falls behind.

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"matchfilter/internal/burst"
	"matchfilter/internal/faultinject"
	"matchfilter/internal/flow"
	"matchfilter/internal/leakcheck"
	"matchfilter/internal/pcap"
	"matchfilter/internal/tenant"
)

// The merge rule post applies: newest generation wins, reset is sticky,
// a teardown supersedes what was pending and survives a later swap.
func TestPostCoalescesPerIndex(t *testing.T) {
	s := &shard{in: burst.NewQueue(1)}
	g1, g2, g3 := &generation{n: 1}, &generation{n: 2}, &generation{n: 3}
	for _, step := range []struct {
		idx  uint32
		cmd  swapCmd
		want map[uint32]swapCmd
	}{
		{7, swapCmd{gen: g1, reset: true}, map[uint32]swapCmd{7: {gen: g1, reset: true}}},
		{7, swapCmd{gen: g2}, map[uint32]swapCmd{7: {gen: g2, reset: true}}},
		{0, swapCmd{gen: g1}, map[uint32]swapCmd{7: {gen: g2, reset: true}, 0: {gen: g1}}},
		{7, swapCmd{drop: true}, map[uint32]swapCmd{7: {drop: true}, 0: {gen: g1}}},
		{7, swapCmd{gen: g3}, map[uint32]swapCmd{7: {gen: g3, drop: true}, 0: {gen: g1}}},
		{0, swapCmd{gen: g2}, map[uint32]swapCmd{7: {gen: g3, drop: true}, 0: {gen: g2}}},
	} {
		s.post(step.idx, step.cmd)
		if !reflect.DeepEqual(s.cmds, step.want) {
			t.Fatalf("after post(%d, %+v): pending %+v, want %+v", step.idx, step.cmd, s.cmds, step.want)
		}
		if !s.pending.Load() {
			t.Fatal("pending flag not raised")
		}
	}
}

// keyFor finds a flow key of tenant ten that hashes onto the wanted shard.
func keyFor(t *testing.T, ten uint32, want, shards int) pcap.FlowKey {
	t.Helper()
	for port := 1; port < 1<<16; port++ {
		k := pcap.FlowKey{Tenant: ten, SrcIP: 0x0a000001, DstIP: 0xc0a80101, SrcPort: uint16(port), DstPort: 80}
		if shardIndex(k, shards) == want {
			return k
		}
	}
	t.Fatalf("no key of tenant %d maps to shard %d of %d", ten, want, shards)
	return pcap.FlowKey{}
}

// A wedged shard holds at most one pending command per index through a
// thousand swaps, and once released ends exactly where its unwedged
// sibling did: same current generations, drained flows still on the
// generation they started with (and matching across the swaps), reset
// flows restarted on the newest, the deleted tenant gone.
func TestPendingCommandsAreBounded(t *testing.T) {
	leakcheck.Check(t)
	m := buildMFA(t, "ab.*cd")
	plain := func() flow.Runner { return m.NewRunner() }
	gate := make(chan struct{})
	reg := tenant.NewRegistry(tenant.Config{})
	// Generation 1 of the default set can wedge its shard on a token.
	e := New(Config{Shards: 2, Tenants: reg},
		func() flow.Runner { return faultinject.StallOn([]byte("WEDGE"), gate, m.NewRunner()) }, nil)
	reg.Bind(e)
	ids := []string{"drains", "resets", "deleted"}
	idx := map[string]uint32{"default": 0}
	for _, id := range ids {
		tn, _, err := reg.Put(id, tenant.PutSpec{NewRunner: plain})
		if err != nil {
			t.Fatal(err)
		}
		idx[id] = tn.Index()
	}
	seg := func(k pcap.FlowKey, seq uint32, flags uint8, payload string) {
		t.Helper()
		if err := e.HandleSegment(pcap.Segment{Key: k, Seq: seq, Flags: flags, Payload: []byte(payload)}); err != nil {
			t.Fatal(err)
		}
	}
	// One live flow per (index, shard), each holding "ab" of "ab.*cd".
	for _, ten := range idx {
		for sh := 0; sh < 2; sh++ {
			seg(keyFor(t, ten, sh, 2), 1, pcap.FlagACK, "ab")
		}
	}
	wedge := keyFor(t, 0, 0, 2)
	wedge.SrcIP++ // a default-set flow of its own on shard 0...
	for shardIndex(wedge, 2) != 0 {
		wedge.SrcPort++
	}
	seg(wedge, 1, pcap.FlagACK, "WEDGE") // ...whose scan blocks until gate closes
	waitProcessed(t, e, 9)

	pendingOn := func(s *shard) int {
		s.cmdMu.Lock()
		defer s.cmdMu.Unlock()
		return len(s.cmds)
	}
	last := map[string]uint64{}
	swap := func(id string, reset bool) {
		t.Helper()
		var err error
		if id == "default" {
			last[id], err = e.Reload(plain, reset)
		} else {
			_, last[id], err = reg.Put(id, tenant.PutSpec{NewRunner: plain, Reset: reset})
		}
		if err != nil {
			t.Fatal(err)
		}
		if n := pendingOn(e.shards[0]); n > 4 {
			t.Fatalf("the wedged shard holds %d pending commands for 4 indexes", n)
		}
	}
	for i := 0; i < 1000; i++ {
		switch i % 4 {
		case 0:
			swap("default", i%3 == 0)
		case 1:
			swap("drains", false)
		case 2:
			swap("resets", i%5 == 0)
		case 3:
			swap("deleted", i%7 == 0)
		}
	}
	swap("default", true)
	swap("resets", true)
	if err := reg.Delete("deleted"); err != nil {
		t.Fatal(err)
	}
	if n := pendingOn(e.shards[0]); n != 4 {
		t.Fatalf("the wedged shard holds %d pending commands, want one per index", n)
	}

	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for e.shards[0].pending.Load() || e.shards[1].pending.Load() {
		if time.Now().After(deadline) {
			t.Fatal("pending commands never applied after the wedge lifted")
		}
		runtime.Gosched() // shard progress, not a timer

	}
	seg(wedge, 6, pcap.FlagRST, "")
	for _, ten := range idx {
		for sh := 0; sh < 2; sh++ {
			seg(keyFor(t, ten, sh, 2), 3, pcap.FlagACK, "cd")
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	want := map[uint64]int64{
		packGen(idx["drains"], 1):              1, // never moved
		packGen(idx["drains"], last["drains"]): 0, // current, no flow started on it
		packGen(idx["resets"], last["resets"]): 1,
		last["default"]:                        1,
	}
	for sh, s := range e.shards {
		snap := s.snap.Load()
		if !reflect.DeepEqual(snap.FlowsByGen, want) {
			t.Errorf("shard %d: flows by generation %v, want %v", sh, snap.FlowsByGen, want)
		}
		if snap.Generation != last["default"] {
			t.Errorf("shard %d serves default generation %d, want %d", sh, snap.Generation, last["default"])
		}
		// The drained flow completed "ab.*cd" across every swap; the reset
		// ones restarted after "ab" and saw only "cd".
		if got := s.matches.Load(); got != 1 {
			t.Errorf("shard %d confirmed %d matches, want the drained flow's one", sh, got)
		}
	}
	st := e.Stats()
	if st.UnknownTenantDrops != 2 || st.TenantDrops != 0 {
		t.Errorf("the deleted tenant's late segments: %d shed at dispatch, %d in assemblers; want 2, 0", st.UnknownTenantDrops, st.TenantDrops)
	}
	if st.GenFlows[packGen(idx["deleted"], 1)] != 0 || st.FlowsLive != 6 {
		t.Errorf("deleted tenant's flows survive: %v, %d live flows", st.GenFlows, st.FlowsLive)
	}
}
