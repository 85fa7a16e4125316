package main

import (
	"fmt"
	"sort"
	"time"
)

// metric is one reported number. Value is what regressions are judged
// on; where it summarises several Samples they are kept, with their
// quartiles and count.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	N       int       `json:"n,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

type metrics map[string]metric

func (ms metrics) set(name, unit string, v float64) { ms[name] = metric{Value: v, Unit: unit} }

// setQuantile reports the p-th percentile of samples and keeps them, with
// their median and quartiles, for anyone judging the spread. Timings on
// a shared host are disturbed in one direction only — another tenant
// can slow a pass but never speed it up — so the undisturbed end of the
// distribution is what repeats from run to run and what a code change
// moves; the medians are reported beside it under harness.*.
func (ms metrics) setQuantile(name, unit string, samples []float64, p float64) {
	if len(samples) == 0 { // every pass failed; the run is reported incorrect
		ms[name] = metric{Unit: unit}
		return
	}
	q1, q3 := quartiles(samples)
	ms[name] = metric{Value: percentile(samples, p), Unit: unit, Q1: q1, Q3: q3, N: len(samples), Samples: samples}
}

func (ms metrics) setMedian(name, unit string, samples []float64) {
	ms.setQuantile(name, unit, samples, 50)
}

// measurement is the serving-path part of a run: the passes made inside
// the --seconds budget.
type measurement struct {
	closed       []passResult // closed loop, the end-to-end wiring
	closedTraced []passResult // the same with the tracing wrappers in place
	lo, hi       []passResult // open loop at the workload's two rates
	attempted    int
	failed       int
	lostBytes    int64
	offeredBytes int64
	errs         []string
}

func (ms *measurement) account(kind string, r passResult) {
	ms.attempted += r.flows
	ms.failed += r.failed
	ms.lostBytes += r.lost
	ms.offeredBytes += r.offered
	if r.err != "" {
		ms.errs = append(ms.errs, kind+": "+r.err)
	} else if r.failed > 0 {
		ms.errs = append(ms.errs, fmt.Sprintf("%s: %d of %d flows differ from the reference (hard drops %d, queue drops %d, dropped segments %d)",
			kind, r.failed, r.flows, r.stats.HardDrops, r.stats.QueueDrops, r.stats.DroppedSegs))
	}
}

// pacedPass bounds one open-loop pass; a rate's budget is split into
// passes of about this length.
const pacedPass = time.Second

// measure spends about seconds on the serving path: one unmeasured
// closed-loop pass to fill caches, buffer pool and runner pool, then
// closed-loop passes, then open-loop passes at each rate. With sp set,
// every other closed-loop pass runs traced, so tracing overhead is the
// difference between passes interleaved in one process.
func measure(wd *world, srv *server, seconds float64, sp *spans, parent int) *measurement {
	ms := &measurement{}
	budget := time.Duration(seconds * float64(time.Second))
	pacedBudget := time.Duration(float64(budget) * wd.spec.pacedShare)
	closedBudget := budget - pacedBudget

	ms.account("warm-up", srv.run(pass{}))

	start := time.Now()
	for i := 0; time.Since(start) < closedBudget || len(ms.closed) < 3; i++ {
		name, p, out := "serve.closed", pass{}, &ms.closed
		if sp != nil && i%2 == 1 {
			name, p, out = "serve.closed.traced", pass{sp: sp}, &ms.closedTraced
		}
		p.parent = sp.begin(name, parent)
		r := srv.run(p)
		sp.end(p.parent)
		*out = append(*out, r)
		ms.account(name, r)
	}

	// The low rate carries the bounded end-to-end latency and gets two
	// thirds of the open-loop time.
	for _, rate := range []struct {
		name   string
		mibps  float64
		budget time.Duration
		out    *[]passResult
	}{{"lo", wd.spec.pacedLo, pacedBudget * 2 / 3, &ms.lo}, {"hi", wd.spec.pacedHi, pacedBudget / 3, &ms.hi}} {
		// A pass lasts pacedPass, or less when the capture runs out first.
		bps := rate.mibps * (1 << 20)
		passLen := time.Duration(float64(wd.tr.bytes) / bps * float64(time.Second))
		if passLen > pacedPass {
			passLen = pacedPass
		}
		n := int((rate.budget + passLen/2) / passLen)
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			id := sp.begin("serve.paced."+rate.name, parent)
			r := srv.run(pass{rate: bps, limit: passLen})
			sp.end(id)
			*rate.out = append(*rate.out, r)
			ms.account("serve.paced."+rate.name, r)
		}
	}
	return ms
}

func each[T any](xs []T, fn func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = fn(x)
	}
	return out
}

// latencyWindow is the slice of an open-loop pass one latency sample
// summarises. Windows rather than passes are the unit because the
// host's disturbances last tens of milliseconds: a one-second pass
// always contains some, a short window often contains none.
const latencyWindow = 25 * time.Millisecond

// windowed returns the p-th percentile latency of every full-enough
// window of every pass.
func windowed(rs []passResult, p float64) []float64 {
	var out []float64
	for _, r := range rs {
		byWindow := map[time.Duration][]float64{}
		for _, l := range r.latency {
			w := l.due / latencyWindow
			byWindow[w] = append(byWindow[w], l.us)
		}
		for _, v := range byWindow {
			if len(v) >= 10 {
				out = append(out, percentile(v, p))
			}
		}
	}
	sort.Float64s(out) // map order is random; keep the recorded samples stable
	return out
}

// latencyMetrics reports, for one rate, the alert latency — the lower
// quartile over windows of the window median — and beside it the plain
// median over windows, the p99 over all matches and the generator's p99
// lateness.
func latencyMetrics(out metrics, suffix string, rs []passResult) {
	p50s := windowed(rs, 50)
	name := "alert_latency_p50_us_" + suffix
	if !isEndToEnd(name) {
		name = "harness." + name
	}
	out.setQuantile(name, "us", p50s, 25)
	out.setMedian("harness.alert_latency_p50_us_"+suffix+"_median", "us", p50s)
	var all, late []float64
	for _, r := range rs {
		for _, l := range r.latency {
			all = append(all, l.us)
		}
		late = append(late, r.genLate...)
	}
	out.set("harness.alert_latency_p99_us_"+suffix, "us", percentile(all, 99))
	out.set("harness.gen_late_p99_us_"+suffix, "us", percentile(late, 99))
}

// endToEnd fills in what a user of the system sees, plus the harness's
// own quality numbers that come from the same passes.
func endToEnd(wd *world, ms *measurement, out metrics) {
	out.setQuantile("setup_s", "s", eachSetup(wd.setup, setupTimes.total), 25)
	mbps := each(ms.closed, passResult.mibps)
	cpu := each(ms.closed, passResult.cpuNsPerByte)
	out.setQuantile("scan_mbps", "MiB/s", mbps, 90)
	out.setQuantile("cpu_ns_per_byte", "ns", cpu, 10)
	out.setMedian("harness.scan_mbps_median", "MiB/s", mbps)
	out.setMedian("harness.cpu_ns_per_byte_median", "ns", cpu)
	out.set("image_bytes", "bytes", float64(wd.mfa.Stats().MemoryImageBytes()))
	latencyMetrics(out, "lo", ms.lo)
	latencyMetrics(out, "hi", ms.hi)

	out.set("harness.pass_iqr_frac", "fraction", iqrFrac(mbps))
	out.set("engine.loss_frac", "fraction", float64(ms.lostBytes)/float64(ms.offeredBytes))
	var hard, queue, tiers, dropped float64
	for _, rs := range [][]passResult{ms.closed, ms.closedTraced, ms.lo, ms.hi} {
		for _, r := range rs {
			hard += float64(r.stats.HardDrops)
			queue += float64(r.stats.QueueDrops)
			tiers += float64(r.stats.TierEnters[1] + r.stats.TierEnters[2])
			dropped += float64(r.stats.DroppedSegs)
		}
	}
	out.set("engine.hard_drops", "count", hard)
	out.set("engine.queue_drops", "count", queue)
	out.set("engine.tier_enters", "count", tiers)
	out.set("flow.dropped_segs", "count", dropped)
	if len(ms.closedTraced) > 0 {
		traced := percentile(each(ms.closedTraced, passResult.mibps), 90)
		out.set("harness.trace_overhead_frac", "fraction", 1-traced/percentile(mbps, 90))
	}
}

func eachSetup(ts []setupTimes, fn func(setupTimes) time.Duration) []float64 {
	return each(ts, func(t setupTimes) float64 { return fn(t).Seconds() })
}
