package matchfilter

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (§V), plus the ablations called out in
// DESIGN.md §5. `go test -bench=. -benchmem` regenerates every number;
// cmd/mfabench renders the same experiments as formatted tables.
//
// Construction benchmarks (Table V / Figures 2-3) report states and
// image bytes per engine; throughput benchmarks (Figures 4-5) report
// ns/op with SetBytes so the MB/s column is the paper's axis (the paper's
// CpB = ns/B × 3.0 GHz nominal).

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"matchfilter/internal/bench"
	"matchfilter/internal/core"
	"matchfilter/internal/dfa"
	"matchfilter/internal/nfa"
	"matchfilter/internal/regexparse"
	"matchfilter/internal/splitter"
	"matchfilter/internal/trace"
)

// enginesCache builds each pattern set's engines once per bench binary.
var enginesCache sync.Map // set name -> *bench.Engines

func engines(b *testing.B, set string) *bench.Engines {
	b.Helper()
	if e, ok := enginesCache.Load(set); ok {
		return e.(*bench.Engines)
	}
	e, err := bench.Build(set)
	if err != nil {
		b.Fatal(err)
	}
	enginesCache.Store(set, e)
	return e
}

// BenchmarkTableI measures the construction of the paper's R1 vs R2
// example and reports the DFA state counts (paper: 106 vs 23).
func BenchmarkTableI(b *testing.B) {
	sets := map[string][]string{
		"R1": {"vi.*emacs", "bsd.*gnu", "abc.*mm?o.*xyz"},
		"R2": {"emacs", "gnu", "xyz", "vi", "bsd", "abc", "mm?o"},
	}
	for name, sources := range sets {
		b.Run(name, func(b *testing.B) {
			var states int
			for i := 0; i < b.N; i++ {
				rules := make([]nfa.Rule, len(sources))
				for j, src := range sources {
					p, err := regexparse.Parse(src)
					if err != nil {
						b.Fatal(err)
					}
					rules[j] = nfa.Rule{Pattern: p, MatchID: j + 1}
				}
				n, err := nfa.Build(rules)
				if err != nil {
					b.Fatal(err)
				}
				d, err := dfa.FromNFA(n, dfa.Options{Minimize: true})
				if err != nil {
					b.Fatal(err)
				}
				states = d.NumStates()
			}
			b.ReportMetric(float64(states), "DFAstates")
		})
	}
}

// constructionSets lists the Table V sets cheap enough to reconstruct
// inside a benchmark loop for every engine. The full seven-set matrix
// (including B217p's designed DFA failure) is produced by
// `mfabench -exp table5` and recorded in EXPERIMENTS.md.
var constructionSets = []string{"C7p", "C8", "C10", "S24"}

// BenchmarkTableV_Construction regenerates the Table V state counts: it
// times NFA and MFA construction per set and reports both state columns.
func BenchmarkTableV_Construction(b *testing.B) {
	for _, set := range constructionSets {
		b.Run(set, func(b *testing.B) {
			var nfaQ, mfaQ int
			for i := 0; i < b.N; i++ {
				e, err := bench.Build(set)
				if err != nil {
					b.Fatal(err)
				}
				rn, _ := e.Result(bench.EngineNFA)
				rm, _ := e.Result(bench.EngineMFA)
				nfaQ, mfaQ = rn.States, rm.States
			}
			b.ReportMetric(float64(nfaQ), "NFAstates")
			b.ReportMetric(float64(mfaQ), "MFAstates")
		})
	}
}

// BenchmarkFigure2_ImageSizes reports the per-engine memory images of
// each set (bytes), the Figure 2 matrix.
func BenchmarkFigure2_ImageSizes(b *testing.B) {
	for _, set := range constructionSets {
		e := engines(b, set)
		for _, k := range bench.AllEngines {
			r, ok := e.Result(k)
			if !ok || r.Failed {
				continue
			}
			b.Run(fmt.Sprintf("%s/%s", set, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = r.ImageBytes
				}
				b.ReportMetric(float64(r.ImageBytes), "imageBytes")
			})
		}
	}
}

// BenchmarkFigure3_Construction times the all-engine construction of
// each set and reports the per-engine breakdown (milliseconds) from the
// build results — the Figure 3 bars. (B217p, whose DFA failure alone
// takes a minute of budget-bounded search, is exercised by mfabench.)
func BenchmarkFigure3_Construction(b *testing.B) {
	for _, set := range constructionSets {
		b.Run(set, func(b *testing.B) {
			var e *bench.Engines
			for i := 0; i < b.N; i++ {
				var err error
				e, err = bench.Build(set)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, k := range bench.AllEngines {
				if r, ok := e.Result(k); ok && !r.Failed {
					b.ReportMetric(float64(r.BuildTime.Milliseconds()), k.String()+"_ms")
				}
			}
		})
	}
}

// BenchmarkFigure4_Traces measures the full pcap path (decode +
// reassembly + scan) for each engine over representative trace profiles.
// ns/op is per full trace; the B/s rate is payload throughput.
func BenchmarkFigure4_Traces(b *testing.B) {
	profiles := bench.DefaultTraces(0.05)
	keep := map[string]bool{"LL1": true, "C12": true, "N": true}
	for _, set := range []string{"C8", "S24"} {
		e := engines(b, set)
		for _, p := range profiles {
			if !keep[p.Name] {
				continue
			}
			pcapBytes, err := bench.SynthesizeTrace(p, set)
			if err != nil {
				b.Fatal(err)
			}
			for _, k := range bench.AllEngines {
				b.Run(fmt.Sprintf("%s/%s/%s", set, p.Name, k), func(b *testing.B) {
					var payload int64
					for i := 0; i < b.N; i++ {
						res, ok := e.RunTrace(p, pcapBytes, k)
						if !ok {
							b.Skip("engine unavailable for this set")
						}
						payload = res.Bytes
					}
					b.SetBytes(payload)
				})
			}
		}
	}
}

// BenchmarkFigure5_Synthetic measures raw scan throughput on
// difficulty-pM traffic for each engine; SetBytes makes the MB/s column
// the paper's y-axis (inverted).
func BenchmarkFigure5_Synthetic(b *testing.B) {
	const size = 256 << 10
	e := engines(b, "C8")
	walk := e.DFA.DFA()
	for _, pM := range bench.PaperPMs {
		var data []byte
		if pM < 0 {
			data = trace.Random(size, 1)
		} else {
			data = trace.NewGenerator(walk, 1).Generate(nil, size, pM)
		}
		label := "rand"
		if pM >= 0 {
			label = fmt.Sprintf("pM=%.2f", pM)
		}
		for _, k := range bench.AllEngines {
			fn := e.Feeder(k)
			if fn == nil {
				continue
			}
			b.Run(fmt.Sprintf("%s/%s", label, k), func(b *testing.B) {
				b.SetBytes(size)
				for i := 0; i < b.N; i++ {
					fn(data)
				}
			})
		}
	}
}

// BenchmarkAblationFilterPlacement isolates DESIGN.md ablation 2: the
// same decomposition run with match-time filtering (MFA), state-entry
// programs (XFA) and transition-time conditions (HFA), on match-heavy
// traffic where the filter path dominates.
func BenchmarkAblationFilterPlacement(b *testing.B) {
	e := engines(b, "C8")
	data := trace.NewGenerator(e.MFA.DFA(), 3).Generate(nil, 256<<10, 0.95)
	for _, k := range []bench.EngineKind{bench.EngineMFA, bench.EngineXFA, bench.EngineHFA} {
		fn := e.Feeder(k)
		b.Run(k.String(), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				fn(data)
			}
		})
	}
}

// BenchmarkAblationDecomposition isolates DESIGN.md ablation 1/4: the
// same patterns compiled with and without decomposition. The metric pair
// to compare is image bytes (reported) and scan throughput.
func BenchmarkAblationDecomposition(b *testing.B) {
	pats := []string{"alpha.*omega", "gamma.*delta", "epsilon.*zeta", "theta.*iota"}
	for _, mode := range []string{"MFA", "plainDFA"} {
		var opts []Option
		if mode == "plainDFA" {
			opts = append(opts, WithoutDecomposition())
		}
		e := MustCompile(pats, opts...)
		data := trace.TextLike(256<<10, 5, []string{"alpha", "omega", "gamma"}, 0.01)
		b.Run(mode, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportMetric(float64(e.Stats().ImageBytes), "imageBytes")
			for i := 0; i < b.N; i++ {
				s := e.NewStream(nil)
				_, _ = s.Write(data)
			}
		})
	}
}

// BenchmarkAblationTableLayout isolates DESIGN.md ablation 1: identical
// automaton semantics scanned through the byte-class table of 4-byte
// entries (DFA) versus the flat table of 16-byte conditional cells (HFA)
// on benign traffic, measuring the pure per-byte layout cost.
func BenchmarkAblationTableLayout(b *testing.B) {
	e := engines(b, "C8")
	data := trace.Random(256<<10, 2)
	for _, k := range []bench.EngineKind{bench.EngineDFA, bench.EngineHFA} {
		fn := e.Feeder(k)
		b.Run(k.String(), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				fn(data)
			}
		})
	}
}

// BenchmarkScanAPI measures the public API overhead end to end.
func BenchmarkScanAPI(b *testing.B) {
	e := MustCompile([]string{"attack.*payload", `/^get[^\n]*passwd/i`, "xmrig"})
	data := trace.TextLike(64<<10, 4, []string{"attack", "payload", "xmrig"}, 0.003)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		s := e.NewStream(nil)
		_, _ = s.Write(data)
	}
}

// BenchmarkEngineParallel measures one shared Engine scanned by
// GOMAXPROCS goroutines concurrently, each owning a private Stream — the
// §III-B flow-multiplexing model (immutable automaton, per-flow (q, m)
// context) that internal/engine's shards rely on. Compare ns/op against
// BenchmarkScanAPI: per-goroutine throughput should hold steady as
// parallelism rises on multi-core hosts.
func BenchmarkEngineParallel(b *testing.B) {
	e := MustCompile([]string{"attack.*payload", `/^get[^\n]*passwd/i`, "xmrig"})
	data := trace.TextLike(64<<10, 4, []string{"attack", "payload", "xmrig"}, 0.003)
	b.SetBytes(int64(len(data)))
	b.RunParallel(func(pb *testing.PB) {
		s := e.NewStream(nil)
		for pb.Next() {
			s.Reset()
			_, _ = s.Write(data)
		}
	})
}

// BenchmarkAblationCountingGap compares the .{n,} counting-gap extension
// (DESIGN.md §8, the default) against bounded-repeat expansion under the
// paper's conditions: same semantics, two implementations. The imageBytes
// metric shows the state cost the registers avoid.
func BenchmarkAblationCountingGap(b *testing.B) {
	p, err := regexparse.ParsePCRE("hdra.{14,}tailz")
	if err != nil {
		b.Fatal(err)
	}
	data := trace.TextLike(256<<10, 8, []string{"hdra", "tailz"}, 0.002)
	for _, mode := range []struct {
		name string
		c    splitter.Construction
	}{{"registers", splitter.Extended}, {"expanded", splitter.Paper}} {
		m, err := core.Compile([]core.Rule{{Pattern: p, ID: 1}}, core.Options{Splitter: splitter.Options{Construction: mode.c}})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportMetric(float64(m.Stats().MemoryImageBytes()), "imageBytes")
			for i := 0; i < b.N; i++ {
				m.NewRunner().FeedCount(data)
			}
		})
	}
}

// BenchmarkSaveLoad measures engine (de)serialization, the compile-once
// deploy-many path.
func BenchmarkSaveLoad(b *testing.B) {
	e := MustCompile([]string{"attack.*payload", `/^get[^\n]*passwd/i`, "xmrig"})
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			if err := e.Save(&w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}
