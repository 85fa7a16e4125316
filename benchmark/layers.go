package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"matchfilter/internal/core"
	"matchfilter/internal/dfa"
	"matchfilter/internal/engine"
	"matchfilter/internal/flow"
	"matchfilter/internal/input"
	"matchfilter/internal/nfa"
	"matchfilter/internal/pcap"
	"matchfilter/internal/splitter"
	"matchfilter/internal/telemetry"
)

// stageReps is how often each stage of the ledger is replayed; the
// fastest replay is reported, for the reason setQuantile gives.
const stageReps = 5

// ledger measures each layer alone, from outside, by calling its
// exported functions on the data the serving path would hand it: the
// build stages on the workload's rules, the scan stages on each flow's
// reassembled byte stream, the packet stages on a prefix of the capture.
// Every replay is one span under parent.
type ledger struct {
	wd     *world
	srv    *server
	sp     *spans
	parent int
	out    metrics
}

// stage runs fn stageReps times (once when a repetition takes over a
// second) and returns the shortest duration.
func (l *ledger) stage(name string, fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < stageReps; i++ {
		id := l.sp.begin(name, l.parent)
		start := time.Now()
		fn()
		d := time.Since(start)
		l.sp.end(id)
		if d < best {
			best = d
		}
		if d > time.Second {
			break
		}
	}
	return best
}

type nullRunner struct{}

func (nullRunner) Feed([]byte, func(int32, int64)) {}
func (nullRunner) Reset()                          {}

// nullSink releases every segment unscanned: the far end of the input
// layer with nothing behind it.
type nullSink struct{}

func (nullSink) HandleSegmentOwned(_ pcap.Segment, owner pcap.Owner) error {
	if owner != nil {
		owner.Release()
	}
	return nil
}

func (l *ledger) run() error {
	wd, out := l.wd, l.out

	// Build stages. parse, compile and self-check were timed call by
	// call in every set-up repetition (lower quartile, as setup_s); the
	// splitter, NFA and DFA stages that core.Compile runs internally are
	// replayed here.
	out.setQuantile("regexparse.parse_s", "s", eachSetup(wd.setup, func(t setupTimes) time.Duration { return t.parse }), 25)
	out.setQuantile("core.compile_s", "s", eachSetup(wd.setup, func(t setupTimes) time.Duration { return t.compile }), 25)
	out.setQuantile("core.selfcheck_s", "s", eachSetup(wd.setup, func(t setupTimes) time.Duration { return t.selfCheck }), 25)
	rules, err := parseRules(wd.rules)
	if err != nil {
		return err
	}
	srules := make([]splitter.Rule, len(rules))
	for i, r := range rules {
		srules[i] = splitter.Rule{Pattern: r.Pattern, RuleID: r.ID}
	}
	var split *splitter.Result
	out.set("splitter.split_s", "s", l.stage("splitter.split", func() {
		split, err = splitter.Split(srules, wd.spec.opts.Splitter)
	}).Seconds())
	if err != nil {
		return err
	}
	frags := make([]nfa.Rule, len(split.Fragments))
	for i, f := range split.Fragments {
		frags[i] = nfa.Rule{Pattern: f.Pattern, MatchID: int(f.InternalID)}
	}
	var n *nfa.NFA
	out.set("nfa.build_s", "s", l.stage("nfa.build", func() { n, err = nfa.Build(frags) }).Seconds())
	if err != nil {
		return err
	}
	var d *dfa.DFA
	out.set("dfa.build_s", "s", l.stage("dfa.build", func() { d, err = dfa.FromNFA(n, wd.spec.opts.DFA) }).Seconds())
	if err != nil {
		return err
	}
	out.set("dfa.states", "count", float64(d.NumStates()))
	out.set("dfa.classes", "count", float64(d.NumClasses()))
	out.set("dfa.table_bytes", "bytes", float64(d.TableBytes()))
	out.set("filter.image_bytes", "bytes", float64(wd.mfa.Program().MemoryImageBytes()))
	var image bytes.Buffer
	if _, err := wd.mfa.WriteTo(&image); err != nil {
		return err
	}
	out.set("core.load_s", "s", l.stage("core.load", func() {
		_, err = core.ReadMFA(bytes.NewReader(image.Bytes()))
	}).Seconds())
	if err != nil {
		return err
	}
	_, mem, regs, ctrs := wd.mfa.NewRunner().Context()
	// The saved context of a flow: DFA state, position, filter memory,
	// position registers and counter words.
	out.set("core.flow_ctx_bytes", "bytes", float64(4+8+8*len(mem)+8*len(regs)+8*len(ctrs)))

	lt := wd.tr
	pkts := float64(len(lt.packets))
	payload := float64(lt.bytes)

	// pcap: read and decode every frame. The segments of the last
	// repetition feed the later stages.
	var segs []pcap.Segment
	decode := l.stage("pcap.decode", func() { segs, err = decodeAll(lt.pcap, segs[:0]) })
	if err != nil {
		return err
	}
	out.set("pcap.decode_ns_per_pkt", "ns", float64(decode)/pkts)

	// Rebuild each flow's byte stream from the decoded segments and
	// check it against what the generator wrote.
	arrived := wd.arrived
	streams := make([][]byte, len(wd.tr.payloads))
	var streamBytes float64
	for f, a := range arrived {
		if len(a) > 0 {
			streams[f] = make([]byte, a[len(a)-1].end)
			streamBytes += float64(len(streams[f]))
		}
	}
	for _, s := range segs {
		if f, o := flowIndex(s.Key.SrcIP), int(s.Seq)-1; len(s.Payload) > 0 && o+len(s.Payload) <= len(streams[f]) {
			copy(streams[f][o:], s.Payload)
		}
	}
	for f, s := range streams {
		if !bytes.Equal(s, wd.tr.payloads[f][:len(s)]) {
			return fmt.Errorf("flow %d: decoded stream differs from the generated payload", f)
		}
	}

	// dfa: the bare walk (FeedCount), then the walk with its per-id
	// callback (Feed), both on the MFA's character DFA alone.
	walker := dfa.NewEngine(wd.mfa.DFA())
	walk := l.stage("dfa.walk", func() {
		for _, s := range streams {
			walker.NewRunner().FeedCount(s)
		}
	})
	out.set("dfa.walk_ns_per_byte", "ns", float64(walk)/streamBytes)
	var ids, visits float64
	feed := l.stage("dfa.feed", func() {
		ids, visits = 0, 0
		for _, s := range streams {
			last := int64(-1)
			walker.NewRunner().Feed(s, func(_ int32, pos int64) {
				ids++
				if pos != last {
					visits++
					last = pos
				}
			})
		}
	})
	out.set("dfa.feed_ns_per_byte", "ns", float64(feed)/streamBytes)
	out.set("dfa.accept_visit_rate", "1/byte", visits/streamBytes)
	out.set("dfa.ids_per_visit", "ratio", ratio(ids, visits))

	// filter: record the DFA's (internal id, position) stream once, then
	// replay Program.ApplyAll over it with fresh per-flow state — the
	// filter's work with the walk taken away.
	type idEvent struct {
		id  int32
		pos int64
	}
	recorded := make([][]idEvent, len(streams))
	for f, s := range streams {
		walker.NewRunner().Feed(s, func(id int32, pos int64) { recorded[f] = append(recorded[f], idEvent{id, pos}) })
	}
	prog := wd.mfa.Program()
	var confirmed float64
	apply := l.stage("filter.apply", func() {
		confirmed = 0
		for _, evs := range recorded {
			mem, regs, ctrs := prog.NewMemory(), prog.NewRegisters(), prog.NewCounters()
			for _, ev := range evs {
				if _, ok := prog.ApplyAll(mem, regs, ctrs, ev.id, ev.pos); ok {
					confirmed++
				}
			}
		}
	})
	out.set("filter.apply_ns_per_op", "ns", ratio(float64(apply), ids))
	out.set("filter.ops_per_byte", "1/byte", ids/streamBytes)
	out.set("filter.ns_per_byte", "ns", float64(apply)/streamBytes)
	out.set("filter.confirm_ratio", "ratio", ratio(confirmed, ids))

	// core: the composite runner over whole streams, then over the
	// capture's own segmentation, in capture order, a runner per flow.
	var matches float64
	count := func(int32, int64) { matches++ }
	whole := l.stage("core.feed", func() {
		for _, s := range streams {
			wd.mfa.NewRunner().Feed(s, count)
		}
	})
	out.set("core.feed_ns_per_byte", "ns", float64(whole)/streamBytes)
	out.set("core.glue_ns_per_byte", "ns", float64(whole-walk-apply)/streamBytes)
	chunked := l.stage("core.feed_chunked", func() {
		runners := make([]*core.Runner, len(streams))
		cursor := make([]int, len(streams))
		fed := make([]int, len(streams))
		for i, p := range lt.packets {
			f := p.flow
			if a := arrived[f]; cursor[f] < len(a) && a[cursor[f]].pkt == i {
				if runners[f] == nil {
					runners[f] = wd.mfa.NewRunner()
				}
				end := a[cursor[f]].end
				runners[f].Feed(streams[f][fed[f]:end], count)
				fed[f] = end
				cursor[f]++
			}
		}
	})
	out.set("core.feed_chunked_ns_per_byte", "ns", float64(chunked)/streamBytes)

	// input: supervisor and capture source into a sink that only
	// releases; what is left after decode is leasing, the hand-off queue
	// and the pump.
	handoff := l.stage("input.handoff", func() {
		sup := input.NewSupervisor(input.Config{Sink: nullSink{}, QueueDepth: 256, Arena: l.srv.arena})
		sup.Add(input.NewPcapStream("ledger", bytes.NewReader(lt.pcap)))
		err = sup.Run(context.Background())
	})
	if err != nil {
		return err
	}
	out.set("input.handoff_ns_per_pkt", "ns", float64(handoff-decode)/pkts)

	// flow: reassembly alone, feeding a runner that does nothing.
	var fst flow.Stats
	reasm := l.stage("flow.reassembly", func() {
		a := flow.NewAssembler(flow.Config{}, func() flow.Runner { return nullRunner{} }, nil)
		for _, s := range segs {
			a.HandleSegment(s)
		}
		fst = a.Stats()
	})
	out.set("flow.reassembly_ns_per_pkt", "ns", float64(reasm)/pkts)
	out.set("flow.ooo_ratio", "ratio", float64(fst.OutOfOrder)/float64(fst.Packets))

	// engine: dispatch, queue and shard loop around the same reassembly.
	dispatch := l.stage("engine.dispatch", func() {
		e := engine.New(serveConfig(true), func() flow.Runner { return nullRunner{} }, nil)
		for _, s := range segs {
			if err = e.HandleSegment(s); err != nil {
				break
			}
		}
		if cerr := e.Close(); err == nil {
			err = cerr
		}
	})
	if err != nil {
		return err
	}
	out.set("engine.dispatch_ns_per_pkt", "ns", float64(dispatch-reasm)/pkts)

	// ledger: the whole scan on one goroutine, against the sum of its
	// parts measured above.
	serial := l.stage("ledger.serial", func() {
		_, err = flow.ScanPcap(bytes.NewReader(lt.pcap), flow.Config{}, func() flow.Runner { return wd.mfa.NewRunner() },
			func(flow.Match) { matches++ })
	})
	if err != nil {
		return err
	}
	sum := float64(decode+reasm+chunked) / payload
	out.set("ledger.serial_ns_per_byte", "ns", float64(serial)/payload)
	out.set("ledger.sum_ns_per_byte", "ns", sum)
	out.set("ledger.residual_frac", "fraction", (float64(serial)/payload-sum)/(float64(serial)/payload))

	// The serving path on the same prefix, with and without telemetry.
	var serving, bare []float64
	for i := 0; i < stageReps; i++ {
		for _, p := range []struct {
			name string
			bare bool
			out  *[]float64
		}{{"serve.ledger", false, &serving}, {"serve.ledger.bare", true, &bare}} {
			id := l.sp.begin(p.name, l.parent)
			r := l.srv.run(pass{bare: p.bare})
			l.sp.end(id)
			if r.failed > 0 || r.err != "" {
				return fmt.Errorf("ledger serving pass: %d flows failed %s", r.failed, r.err)
			}
			*p.out = append(*p.out, float64(r.wall)/payload)
			if !p.bare {
				out.set("input.arena_miss_ratio", "ratio", float64(r.arena.Misses)/float64(r.arena.Leases))
			}
		}
	}
	out.set("engine.pipeline_ns_per_byte", "ns", percentile(serving, 10)-float64(serial)/payload)
	out.set("telemetry.overhead_ns_per_byte", "ns", percentile(serving, 10)-percentile(bare, 10))

	// telemetry: the event ring alone, pre-stamped as the shard does.
	const ringEvents = 1 << 20
	ring := telemetry.NewEventRing(1024)
	add := l.stage("telemetry.ring_add", func() {
		for i := 0; i < ringEvents; i++ {
			ring.Add(telemetry.Event{TimeUnixNano: 1, Flow: "10.0.0.1:20000->192.168.1.1:80", Pattern: 1, Offset: int64(i)})
		}
	})
	out.set("telemetry.ring_add_ns_per_event", "ns", float64(add)/ringEvents)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// decodeAll reads a capture the way the serving loop does: a record at
// a time, each frame decoded to a TCP segment.
func decodeAll(capture []byte, segs []pcap.Segment) ([]pcap.Segment, error) {
	pr, err := pcap.NewReader(bytes.NewReader(capture))
	if err != nil {
		return nil, err
	}
	for {
		pkt, err := pr.Next()
		if errors.Is(err, io.EOF) {
			return segs, nil
		}
		if err != nil {
			return nil, err
		}
		seg, err := pcap.DecodeTCP(pkt.Data)
		if err != nil {
			return nil, err
		}
		segs = append(segs, seg)
	}
}
