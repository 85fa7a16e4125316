package main

import (
	"bytes"
	"context"
	"fmt"
	"syscall"
	"time"

	"matchfilter/internal/core"
	"matchfilter/internal/engine"
	"matchfilter/internal/flow"
	"matchfilter/internal/input"
	"matchfilter/internal/pcap"
)

// pass describes one replay of the capture through the serving path: an
// in-process copy of the cmd/mfaserve wiring — input.Supervisor and a
// capture source feeding engine.Engine (one shard), core.MFA runners and
// a match callback.
type pass struct {
	// rate > 0 makes the pass open loop: packets are emitted on a
	// schedule of rate payload bytes per second for at most limit.
	// Otherwise the pass is
	// closed loop: the whole capture as fast as backpressure admits it.
	rate  float64
	limit time.Duration
	// bare drops the telemetry registry and event ring from the wiring.
	bare bool
	// sp, when non-nil, traces the pass: counting wrappers at the
	// input→engine and flow→core boundaries with sampled spans.
	sp     *spans
	parent int
}

type passResult struct {
	wall    time.Duration
	cpu     time.Duration
	offered int64 // payload bytes handed to the serving path
	lost    int64 // of those, bytes never scanned (all of them when a stream differed)
	flows   int   // flows checked against the reference
	failed  int   // flows whose stream differed or lost bytes
	err     string
	stats   engine.Stats
	arena   input.ArenaStats
	// Open loop only: per confirmed match, callback time minus the due
	// time of the packet that completed the match, with that due time;
	// and per packet, how late the generator emitted it.
	latency []timedLatency
	genLate []float64 // microseconds
}

// timedLatency is one alert latency and when, from the start of its
// pass, the alert was due.
type timedLatency struct {
	due time.Duration
	us  float64
}

func (r passResult) mibps() float64 {
	return float64(r.offered) / (1 << 20) / r.wall.Seconds()
}

func (r passResult) cpuNsPerByte() float64 {
	return float64(r.cpu.Nanoseconds()) / float64(r.offered)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stamped is a confirmed match and when the callback saw it.
type stamped struct {
	core.MatchEvent
	at time.Time
}

// server holds what passes of one run share: the buffer arena (as the
// daemon keeps one for its lifetime) and the per-flow match buffers.
type server struct {
	wd    *world
	arena *input.Arena
	got   [][]stamped
}

func newServer(wd *world) *server {
	s := &server{wd: wd, arena: &input.Arena{}, got: make([][]stamped, len(wd.ref))}
	for f := range s.got {
		s.got[f] = make([]stamped, 0, len(wd.ref[f])+1)
	}
	return s
}

func (s *server) run(p pass) passResult {
	wd := s.wd
	tr := wd.tr
	for f := range s.got {
		s.got[f] = s.got[f][:0]
	}
	paced := p.rate > 0
	onMatch := func(m engine.Match) {
		f := flowIndex(m.Flow.SrcIP)
		ev := stamped{MatchEvent: core.MatchEvent{RuleID: m.ID, Pos: m.Pos}}
		if paced {
			ev.at = time.Now()
		}
		s.got[f] = append(s.got[f], ev)
	}
	newRunner := func() flow.Runner { return wd.mfa.NewRunner() }
	var tsink *tracedSink
	if p.sp != nil {
		inner := newRunner
		newRunner = func() flow.Runner { return &tracedRunner{r: inner(), sp: p.sp, parent: p.parent} }
	}

	cfg := serveConfig(!p.bare)
	eng := engine.New(cfg, newRunner, onMatch)
	var sink input.Sink = eng
	if p.sp != nil {
		tsink = &tracedSink{sink: eng, sp: p.sp, parent: p.parent}
		sink = tsink
	}
	sup := input.NewSupervisor(input.Config{Sink: sink, QueueDepth: 256, Arena: s.arena, Metrics: cfg.Metrics})
	var src *pacedSource
	if paced {
		src = &pacedSource{tr: tr, rate: p.rate, limit: p.limit}
		sup.Add(src)
	} else {
		sup.Add(input.NewPcapStream("bench", bytes.NewReader(tr.pcap)))
	}

	arena0 := s.arena.Stats()
	cpu0 := cpuTime()
	start := time.Now()
	runErr := sup.Run(context.Background())
	closeErr := eng.Close()
	res := passResult{wall: time.Since(start), cpu: cpuTime() - cpu0, stats: eng.Stats()}
	a := s.arena.Stats()
	res.arena = input.ArenaStats{Leases: a.Leases - arena0.Leases, Releases: a.Releases - arena0.Releases,
		Misses: a.Misses - arena0.Misses, DoubleReleases: a.DoubleReleases - arena0.DoubleReleases}
	if tsink != nil {
		p.sp.count(p.parent, "segments", float64(tsink.calls))
		p.sp.count(p.parent, "payload_bytes", float64(tsink.bytes))
	}

	emitted, arrived := tr, wd.arrived
	if paced {
		emitted = tr.head(src.emitted)
		arrived = emitted.reassemble()
		res.genLate = src.late
	}
	s.check(&res, emitted, arrived)
	switch {
	case runErr != nil:
		res.err = fmt.Sprintf("supervisor: %v", runErr)
	case closeErr != nil:
		res.err = fmt.Sprintf("engine close: %v", closeErr)
	}
	if res.err != "" {
		res.failed, res.lost = res.flows, res.offered
	}
	if paced && res.failed == 0 {
		res.latency = s.latencies(emitted, arrived, src)
	}
	return res
}

// check reconciles what was offered with what the engine says it did,
// and compares every flow's (rule id, position) stream with the
// reference. A flow fails when its stream differs from the reference
// prefix its delivered bytes call for. Any failed flow makes the whole
// pass count as lost: a scanner that reports wrong matches has not
// scanned.
func (s *server) check(res *passResult, emitted *trace, arrived [][]arrival) {
	wd := s.wd
	res.offered = emitted.bytes
	res.flows = len(wd.ref)
	var due int64 // bytes a loss-free scanner feeds its runners
	for f := range wd.ref {
		end := 0
		if a := arrived[f]; len(a) > 0 {
			end = a[len(a)-1].end
		}
		due += int64(end)
		want := wd.ref[f][:wd.expected(f, end)]
		got := s.got[f]
		ok := len(got) == len(want)
		for i := 0; ok && i < len(want); i++ {
			ok = got[i].MatchEvent == want[i]
		}
		if !ok {
			res.failed++
		}
	}
	st := res.stats
	res.lost = due - st.PayloadBytes
	dropped := st.HardDrops + st.QueueDrops + st.WedgeDrops + st.UnhealthyDrops + st.PoisonedDrops + st.UnknownTenantDrops
	if got := st.Packets + dropped; got != int64(len(emitted.packets)) {
		res.err = fmt.Sprintf("segments do not reconcile: offered %d, engine accounts for %d (%d scanned, %d dropped)",
			len(emitted.packets), got, st.Packets, dropped)
	}
	if res.lost != 0 && res.failed == 0 {
		res.err = fmt.Sprintf("engine fed %d payload bytes, a loss-free scan feeds %d", st.PayloadBytes, due)
	}
	if res.failed > 0 {
		res.lost = res.offered
	}
}

// latencies turns the stamped matches of an open-loop pass into alert
// latencies: callback time minus the due time of the packet whose
// arrival made the matching offset contiguous. Timing from the due time,
// not the send time, charges a stalled generator's delay to the matches
// it delayed.
func (s *server) latencies(emitted *trace, arrived [][]arrival, src *pacedSource) []timedLatency {
	var out []timedLatency
	for f, got := range s.got {
		a := arrived[f]
		j := 0
		for _, ev := range got {
			for j < len(a) && int64(a[j].end) <= ev.Pos {
				j++
			}
			if j == len(a) {
				break // cannot happen on a checked pass
			}
			due := src.due(emitted.packets[a[j].pkt])
			out = append(out, timedLatency{due: due, us: float64(ev.at.Sub(src.start)-due) / 1e3})
		}
	}
	return out
}

// pacedSource is the open-loop generator: an input.Source that emits the
// capture's frames on a byte-rate schedule whether or not the pipeline
// keeps up, the way a link delivers traffic.
type pacedSource struct {
	tr    *trace
	rate  float64 // payload bytes per second
	limit time.Duration

	start   time.Time
	emitted int       // packets handed to the pipeline
	late    []float64 // per packet, microseconds behind schedule
}

func (s *pacedSource) Describe() input.Description {
	return input.Description{Name: "paced", Kind: "mem", Detail: "benchmark generator", Finite: true}
}

// due is when a packet is scheduled, relative to the start of the pass:
// when the payload before it has had time to arrive at the rate.
func (s *pacedSource) due(p packet) time.Duration {
	return time.Duration(float64(p.cumPrev) / s.rate * 1e9)
}

func (s *pacedSource) Run(ctx context.Context, em *input.Emitter) error {
	s.late = make([]float64, 0, len(s.tr.packets))
	s.start = time.Now()
	for _, p := range s.tr.packets {
		due := s.due(p)
		if due > s.limit {
			break
		}
		// Sleep while the packet is far off, then spin without yielding:
		// on the reference host a timer wake-up is up to a millisecond
		// late and a yielding spin loses the processor for as long, which
		// at these rates is dozens of packets. The generator therefore
		// owns one processor for the length of an open-loop pass.
		for {
			ahead := due - time.Since(s.start)
			if ahead <= 0 {
				break
			}
			if ahead > 2*time.Millisecond {
				time.Sleep(ahead - 2*time.Millisecond)
			}
		}
		s.late = append(s.late, float64(time.Since(s.start)-due)/1e3)
		lease := em.Lease(p.flen)
		copy(lease.Data(), s.tr.pcap[p.off:p.off+p.flen])
		if err := em.Frame(lease.Data(), lease); err != nil {
			return err
		}
		s.emitted++
	}
	return nil
}

// traceSample is how many calls pass between two sampled spans at a
// traced boundary; every call is counted.
const traceSample = 256

// tracedSink sits on the input→engine boundary of a traced pass.
type tracedSink struct {
	sink   input.Sink
	sp     *spans
	parent int
	calls  int64
	bytes  int64
}

func (t *tracedSink) HandleSegmentOwned(seg pcap.Segment, owner pcap.Owner) error {
	t.calls++
	t.bytes += int64(len(seg.Payload))
	if t.calls%traceSample != 0 {
		return t.sink.HandleSegmentOwned(seg, owner)
	}
	start := time.Now()
	err := t.sink.HandleSegmentOwned(seg, owner)
	t.sp.add("serve.engine.handle_segment", t.parent, start, time.Now())
	return err
}

// tracedRunner sits on the flow→core boundary of a traced pass.
type tracedRunner struct {
	r      flow.Runner
	sp     *spans
	parent int
	calls  int
}

func (t *tracedRunner) Feed(data []byte, onMatch func(id int32, pos int64)) {
	t.calls++
	if t.calls%traceSample != 0 {
		t.r.Feed(data, onMatch)
		return
	}
	start := time.Now()
	t.r.Feed(data, onMatch)
	t.sp.add("serve.core.feed", t.parent, start, time.Now())
}

func (t *tracedRunner) Reset() { t.r.Reset() }
