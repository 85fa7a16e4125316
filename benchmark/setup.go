package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"matchfilter/internal/core"
	"matchfilter/internal/engine"
	"matchfilter/internal/flow"
	"matchfilter/internal/regexparse"
	"matchfilter/internal/telemetry"
)

// world is everything one workload run works on: the compiled automaton,
// the generated capture and the reference match streams.
type world struct {
	spec    *workload
	rules   []string
	mfa     *core.MFA
	tr      *trace
	arrived [][]arrival // tr.reassemble(), for the whole capture
	// ref is, per flow, the (rule id, end position) stream of
	// core.MFA.Run over the flow's payload before segmentation: no
	// capture decoding, reassembly or engine is involved in producing it.
	ref        [][]core.MatchEvent
	refMatches int64
	sha        string
	setup      []setupTimes // one per set-up repetition
}

func parseRules(sources []string) ([]core.Rule, error) {
	rules := make([]core.Rule, len(sources))
	for i, src := range sources {
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			return nil, fmt.Errorf("rule %d %q: %w", i+1, src, err)
		}
		rules[i] = core.Rule{Pattern: p, ID: int32(i + 1)}
	}
	return rules, nil
}

// serveConfig is the cmd/mfaserve engine wiring with one shard and the
// degradation ladder switched off: both watermarks sit above any
// reachable pressure, which leaves pure backpressure, so capacity is
// measured at zero loss and an open-loop generator that catches up after
// a stall of its own is delayed, never shed.
func serveConfig(instrumented bool) engine.Config {
	cfg := engine.Config{Shards: 1, QueueDepth: 4096, SoftWatermark: 2, HardWatermark: 2}
	if instrumented {
		cfg.Metrics = telemetry.NewRegistry()
		cfg.Events = telemetry.NewEventRing(1024)
	}
	return cfg
}

// setupTimes is one repetition of set-up, timed call by call.
type setupTimes struct {
	parse, compile, selfCheck, engineNew time.Duration
}

func (t setupTimes) total() time.Duration { return t.parse + t.compile + t.selfCheck + t.engineNew }

// setUp takes rule text to a serving-ready engine, which is what a
// daemon start or a hot reload costs: parse, compile, self-check, start
// the shards.
func setUp(sources []string, opts core.Options, sp *spans, parent int) (*core.MFA, setupTimes, error) {
	var t setupTimes
	root := sp.begin("setup", parent)
	defer sp.end(root)
	timed := func(name string, d *time.Duration, fn func() error) error {
		id := sp.begin(name, root)
		start := time.Now()
		err := fn()
		*d = time.Since(start)
		sp.end(id)
		return err
	}
	var rules []core.Rule
	var m *core.MFA
	var e *engine.Engine
	err := timed("regexparse.parse", &t.parse, func() (err error) {
		rules, err = parseRules(sources)
		return err
	})
	if err == nil {
		err = timed("core.compile", &t.compile, func() (err error) {
			m, err = core.Compile(rules, opts)
			return err
		})
	}
	if err == nil {
		err = timed("core.selfcheck", &t.selfCheck, func() error { return m.SelfCheck() })
	}
	if err == nil {
		err = timed("engine.new", &t.engineNew, func() error {
			e = engine.New(serveConfig(true), func() flow.Runner { return m.NewRunner() }, nil)
			return nil
		})
	}
	if err == nil {
		err = e.Close()
	}
	return m, t, err
}

// buildWorld sets the workload up, generates its traffic from seed and
// computes the reference streams.
func buildWorld(w *workload, seed uint64, scale float64, sp *spans, parent int) (*world, error) {
	wd := &world{spec: w, rules: w.rules()}

	// Set-up time: a single sample when it takes a second or more (the
	// B217p compile), otherwise at least five, repeated for up to a
	// second so millisecond compiles are not a handful of noisy readings.
	var spent time.Duration
	for len(wd.setup) < 100 {
		m, took, err := setUp(wd.rules, w.opts, sp, parent)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		wd.mfa = m
		wd.setup = append(wd.setup, took)
		spent += took.total()
		if took.total() >= time.Second || (len(wd.setup) >= 5 && spent >= time.Second) {
			break
		}
	}

	id := sp.begin("harness.generate", parent)
	flowBytes := int(float64(w.flowBytes) * scale)
	if flowBytes < 4*w.mss {
		flowBytes = 4 * w.mss
	}
	words := ruleWords(wd.rules)
	payloads := make([][]byte, w.flows)
	for i := range payloads {
		payloads[i] = textLike(flowBytes, seed+uint64(i)*7919, words, w.wordProb)
	}
	wd.tr = synthesize(payloads, w.mss, w.oooProb, seed)
	wd.arrived = wd.tr.reassemble()
	sp.end(id)

	id = sp.begin("harness.reference", parent)
	wd.ref = make([][]core.MatchEvent, len(payloads))
	for i, p := range payloads {
		wd.ref[i] = wd.mfa.Run(p)
		wd.refMatches += int64(len(wd.ref[i]))
	}
	h := sha256.New()
	for _, r := range wd.rules {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	h.Write(wd.tr.pcap)
	wd.sha = hex.EncodeToString(h.Sum(nil))
	sp.end(id)

	if seed == defaultSeed && scale == 1 && w.pinSHA != "" {
		if wd.sha != w.pinSHA || wd.refMatches != w.pinMatches {
			return nil, fmt.Errorf("%s: inputs drifted from the pinned workload: sha256 %s matches %d, pinned %s / %d",
				w.name, wd.sha, wd.refMatches, w.pinSHA, w.pinMatches)
		}
	}
	return wd, nil
}

// expected returns how many of flow f's reference events a scanner must
// have reported once the flow's stream is contiguous up to offset end.
func (wd *world) expected(f, end int) int {
	ref := wd.ref[f]
	return sort.Search(len(ref), func(i int) bool { return ref[i].Pos >= int64(end) })
}
