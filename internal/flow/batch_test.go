package flow

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"matchfilter/internal/core"
	"matchfilter/internal/pcap"
	"matchfilter/internal/trace"
)

// everyByte is 256 one-byte rules, \x00 … \xff: every byte value is its
// own class, so the automaton walks 256 columns under the identity map.
func everyByte() []string {
	srcs := make([]string, 256)
	for b := range srcs {
		srcs[b] = fmt.Sprintf(`\x%02x`, b)
	}
	return srcs
}

func batchedCfg(k int) Config {
	return Config{NewBatcher: func() Batcher { return core.NewFlowBatcher(k) }}
}

// sortedMatches canonicalizes a match list for cross-assembler
// comparison: batched flushes interleave flows, so the global emission
// order differs from scan-on-arrival even though every flow's own
// (id, pos) stream is identical.
func sortedMatches(ms []Match) string {
	out := append([]Match(nil), ms...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Flow != out[j].Flow {
			return fmt.Sprint(out[i].Flow) < fmt.Sprint(out[j].Flow)
		}
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].ID < out[j].ID
	})
	return fmt.Sprint(out)
}

// TestBatchedAssemblerEquivalence drives identical interleaved traffic
// through a scan-on-arrival assembler and batched assemblers of several
// widths, over a class quotient and the 256 columns of everyByte: the
// match sets must agree exactly, and per-flow emission order must be
// position-sorted within each flow.
func TestBatchedAssemblerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, sources := range [][]string{{"attack.*payload", "abc", "x[0-9]+y"}, everyByte()} {
		m := buildMFA(t, sources...)
		classes := m.Stats().DFAClasses
		// Per-flow byte streams, odd lengths included.
		flows := make([][]byte, 5)
		gen := trace.NewGenerator(m.DFA(), 7)
		for i := range flows {
			flows[i] = gen.Generate(nil, 2047+i, 0.6)
		}

		// Segment schedule: random interleave of random-size chunks.
		type segment struct {
			fi  int
			off int
			n   int
		}
		var sched []segment
		offs := make([]int, len(flows))
		for {
			remaining := false
			for fi := range flows {
				if offs[fi] < len(flows[fi]) {
					remaining = true
					n := 1 + rng.Intn(400)
					if rng.Intn(2) == 0 {
						n |= 1
					}
					if offs[fi]+n > len(flows[fi]) {
						n = len(flows[fi]) - offs[fi]
					}
					sched = append(sched, segment{fi, offs[fi], n})
					offs[fi] += n
				}
			}
			if !remaining {
				break
			}
		}

		run := func(cfg Config) []Match {
			var ms []Match
			a := NewAssembler(cfg, func() Runner { return m.NewRunner() },
				func(mt Match) { ms = append(ms, mt) })
			for fi := range flows {
				a.HandleSegment(pcap.Segment{Key: key(fi), Flags: pcap.FlagSYN, Seq: 0})
			}
			for _, s := range sched {
				a.HandleSegment(pcap.Segment{
					Key: key(s.fi), Seq: 1 + uint32(s.off), Flags: pcap.FlagACK,
					Payload: flows[s.fi][s.off : s.off+s.n],
				})
			}
			a.FlushBatch()
			if dead := a.BatchDead(); dead != nil {
				t.Fatalf("a healthy flush reported dead lanes: %v", dead)
			}
			return ms
		}

		want := sortedMatches(run(Config{}))
		for _, k := range []int{1, 4, core.MaxBatchFlows} {
			got := run(batchedCfg(k))
			if sortedMatches(got) != want {
				t.Fatalf("%d classes k=%d: batched match set differs from sequential", classes, k)
			}
			// Per-flow position order must be preserved.
			last := map[pcap.FlowKey]int64{}
			for _, mt := range got {
				if mt.Pos < last[mt.Flow] {
					t.Fatalf("%d classes k=%d: flow %v positions out of order", classes, k, mt.Flow)
				}
				last[mt.Flow] = mt.Pos
			}
		}
	}
}

// TestBatchFlushOnFin checks the teardown path: payload and FIN in the
// same batch window must still deliver the match (flush-before-recycle),
// and the recycled runner must be start-of-flow for the next connection.
func TestBatchFlushOnFin(t *testing.T) {
	m := buildMFA(t, "attack.*payload")
	var ms []Match
	a := NewAssembler(batchedCfg(8), func() Runner { return m.NewRunner() },
		func(mt Match) { ms = append(ms, mt) })

	k := key(1)
	a.HandleSegment(pcap.Segment{Key: k, Seq: 0, Flags: pcap.FlagSYN})
	a.HandleSegment(pcap.Segment{Key: k, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("attack then payload")})
	if len(ms) != 0 {
		t.Fatalf("match fired before flush: %v", ms)
	}
	a.HandleSegment(pcap.Segment{Key: k, Seq: 20, Flags: pcap.FlagFIN})
	if len(ms) != 1 || ms[0].Flow != k {
		t.Fatalf("FIN teardown lost the deferred match: %v", ms)
	}
	// The pooled runner must not bleed "attack" prefix state into a new
	// connection on the same key.
	ms = nil
	a.HandleSegment(pcap.Segment{Key: k, Seq: 100, Flags: pcap.FlagSYN})
	a.HandleSegment(pcap.Segment{Key: k, Seq: 101, Flags: pcap.FlagACK, Payload: []byte(" payload")})
	a.FlushBatch()
	if len(ms) != 0 {
		t.Fatalf("recycled runner carried old state: %v", ms)
	}
	if a.Stats().RunnersReused != 1 {
		t.Fatalf("stats: %+v", a.Stats())
	}
}

// TestBatchFlushOnSynRestart checks 4-tuple reuse: the old connection's
// deferred payload scans (and matches) before the restart resets the
// runner.
func TestBatchFlushOnSynRestart(t *testing.T) {
	m := buildMFA(t, "attack.*payload")
	var ms []Match
	a := NewAssembler(batchedCfg(8), func() Runner { return m.NewRunner() },
		func(mt Match) { ms = append(ms, mt) })

	k := key(1)
	a.HandleSegment(pcap.Segment{Key: k, Seq: 0, Flags: pcap.FlagSYN})
	a.HandleSegment(pcap.Segment{Key: k, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("attack payload")})
	a.HandleSegment(pcap.Segment{Key: k, Seq: 500, Flags: pcap.FlagSYN}) // restart
	if len(ms) != 1 {
		t.Fatalf("restart lost the deferred match: %v", ms)
	}
	a.HandleSegment(pcap.Segment{Key: k, Seq: 501, Flags: pcap.FlagACK, Payload: []byte("payload only")})
	a.FlushBatch()
	if len(ms) != 1 {
		t.Fatalf("restarted flow inherited old state: %v", ms)
	}
}

// TestBatchFlushOnGenerationSwap checks hot reload: deferred payload is
// scanned on the generation that buffered it before resetExisting moves
// flows to the new automaton.
func TestBatchFlushOnGenerationSwap(t *testing.T) {
	m1 := buildMFA(t, "attack.*payload")
	m2 := buildMFA(t, "abc")
	var ms []Match
	a := NewAssembler(batchedCfg(8), func() Runner { return m1.NewRunner() },
		func(mt Match) { ms = append(ms, mt) })

	k := key(1)
	a.HandleSegment(pcap.Segment{Key: k, Seq: 0, Flags: pcap.FlagSYN})
	a.HandleSegment(pcap.Segment{Key: k, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("attack then payload")})
	moved := a.SetGeneration(0, Generation{ID: 1, New: func() Runner { return m2.NewRunner() }}, nil, true)
	if moved != 1 {
		t.Fatalf("moved = %d", moved)
	}
	if len(ms) != 1 || ms[0].ID != 1 {
		t.Fatalf("generation swap lost the deferred match: %v", ms)
	}
	a.HandleSegment(pcap.Segment{Key: k, Seq: 20, Flags: pcap.FlagACK, Payload: []byte("abc")})
	a.FlushBatch()
	if len(ms) != 2 || ms[1].ID != 1 {
		t.Fatalf("post-swap flow not on new generation: %v", ms)
	}
}

// TestBatchFlushOnDropPaths checks DropFlow and DropTenant flush
// deferred work before discarding runners.
func TestBatchFlushOnDropPaths(t *testing.T) {
	m := buildMFA(t, "attack.*payload")
	var ms []Match
	a := NewAssembler(batchedCfg(8), func() Runner { return m.NewRunner() },
		func(mt Match) { ms = append(ms, mt) })

	k := key(1)
	a.HandleSegment(pcap.Segment{Key: k, Seq: 0, Flags: pcap.FlagSYN})
	a.HandleSegment(pcap.Segment{Key: k, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("attack payload")})
	if !a.DropFlow(k) {
		t.Fatal("DropFlow refused a live flow")
	}
	if len(ms) != 1 {
		t.Fatalf("DropFlow lost the deferred match: %v", ms)
	}

	// Tenant drop: install a tenant, defer payload, drop the tenant.
	a.SetGeneration(7, Generation{ID: 1 << 32, New: func() Runner { return m.NewRunner() }}, nil, false)
	tk := key(2)
	tk.Tenant = 7
	ms = nil
	a.HandleSegment(pcap.Segment{Key: tk, Seq: 0, Flags: pcap.FlagSYN})
	a.HandleSegment(pcap.Segment{Key: tk, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("attack payload")})
	if n := a.DropTenant(7); n != 1 {
		t.Fatalf("DropTenant removed %d flows", n)
	}
	if len(ms) != 1 || ms[0].Flow != tk {
		t.Fatalf("DropTenant lost the deferred match: %v", ms)
	}
}
