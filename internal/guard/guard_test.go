package guard

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"matchfilter/internal/clocktest"
	"matchfilter/internal/telemetry"
)

// fakeTarget is a hand-cranked heartbeat for watchdog tests.
type fakeTarget struct {
	seq, start atomic.Int64
	stalls     atomic.Int64
	wedges     atomic.Int64
	lastStall  atomic.Int64
	lastWedge  atomic.Int64
}

func (f *fakeTarget) Beat() (int64, int64) { return f.seq.Load(), f.start.Load() }
func (f *fakeTarget) Stall(seq int64)      { f.stalls.Add(1); f.lastStall.Store(seq) }
func (f *fakeTarget) Wedge(seq int64)      { f.wedges.Add(1); f.lastWedge.Store(seq) }

// begin follows the writer protocol: start=0, seq++, start=now.
func (f *fakeTarget) begin(at time.Time) int64 {
	f.start.Store(0)
	n := f.seq.Add(1)
	f.start.Store(at.UnixNano())
	return n
}

func (f *fakeTarget) finish() { f.start.Store(0) }

// The watchdog's poll period at the deadlines below: a quarter deadline.
const (
	deadline = 10 * time.Millisecond
	tick     = deadline / 4
)

// TestWatchdogFiresOncePerStuckStep: a stuck step stalls on the poll
// that finds it a deadline old (the fourth tick), wedges on the one that
// finds it wedgeAfter deadlines old (the sixteenth), and neither callback
// repeats for the same step.
func TestWatchdogFiresOncePerStuckStep(t *testing.T) {
	clk := clocktest.New()
	ft := &fakeTarget{}
	w := NewWatchdog(clk, deadline, ft)
	defer w.Stop()

	seq := ft.begin(clk.Now())
	clk.Ticks(t, tick, 3)
	if n := ft.stalls.Load(); n != 0 {
		t.Fatalf("stall fired %d times three ticks into a four-tick deadline", n)
	}
	clk.Ticks(t, tick, 1)
	if n := ft.stalls.Load(); n != 1 {
		t.Fatalf("stalls = %d on the deadline's tick, want 1", n)
	}
	if got := ft.lastStall.Load(); got != seq {
		t.Fatalf("Stall(seq) = %d, want %d", got, seq)
	}
	clk.Ticks(t, tick, 4*wedgeAfter-5)
	if n := ft.wedges.Load(); n != 0 {
		t.Fatalf("wedge fired a tick before %d deadlines", wedgeAfter)
	}
	clk.Ticks(t, tick, 1)
	if n := ft.wedges.Load(); n != 1 {
		t.Fatalf("wedges = %d at %d deadlines, want 1", n, wedgeAfter)
	}
	// Stays stuck: neither callback fires again for the same step.
	clk.Ticks(t, tick, 24)
	if s, wd := ft.stalls.Load(), ft.wedges.Load(); s != 1 || wd != 1 {
		t.Fatalf("repeated callbacks for one step: stalls=%d wedges=%d", s, wd)
	}
	if w.Fires() != 1 || w.Wedges() != 1 {
		t.Fatalf("watchdog counters: fires=%d wedges=%d, want 1/1", w.Fires(), w.Wedges())
	}

	// A new step resets the per-step flags and can stall again.
	ft.begin(clk.Now())
	clk.Ticks(t, tick, 4)
	if n := ft.stalls.Load(); n != 2 {
		t.Fatalf("stalls = %d after a second stuck step, want 2", n)
	}
}

// TestWedgeAfterFourDeadlines pins the escalation threshold: a step is
// wedged at four stall deadlines, not three or five.
func TestWedgeAfterFourDeadlines(t *testing.T) {
	if wedgeAfter != 4 {
		t.Fatalf("wedgeAfter = %d deadlines, want 4", wedgeAfter)
	}
	clk := clocktest.New()
	ft := &fakeTarget{}
	w := NewWatchdog(clk, deadline, ft)
	defer w.Stop()
	ft.begin(clk.Now())
	clk.Ticks(t, tick, 15)
	if ft.wedges.Load() != 0 {
		t.Fatal("wedged a tick before four deadlines")
	}
	clk.Ticks(t, tick, 1)
	if ft.wedges.Load() != 1 {
		t.Fatal("not wedged at four deadlines")
	}
}

// TestWatchdogIgnoresIdleAndFastSteps: steps that each last one tick,
// and an idle stretch of several deadlines, never stall.
func TestWatchdogIgnoresIdleAndFastSteps(t *testing.T) {
	clk := clocktest.New()
	ft := &fakeTarget{}
	w := NewWatchdog(clk, deadline, ft)
	defer w.Stop()

	for i := 0; i < 20; i++ {
		ft.begin(clk.Now())
		clk.Ticks(t, tick, 1)
		ft.finish()
	}
	clk.Ticks(t, tick, 32) // idle for eight deadlines
	if s := ft.stalls.Load(); s != 0 {
		t.Fatalf("false positive: %d stalls on fast/idle target", s)
	}
}

func TestWatchdogStopIsIdempotent(t *testing.T) {
	w := NewWatchdog(Runtime, time.Millisecond, &fakeTarget{})
	w.Stop()
	w.Stop()
}

// TestGovernorAdmitBlocksOverThreshold: over the threshold Admit holds
// through every re-check that still finds usage high, and returns on the
// first that does not; the pause is as long as those re-checks.
func TestGovernorAdmitBlocksOverThreshold(t *testing.T) {
	if admitPoll != 2*time.Millisecond {
		t.Fatalf("admitPoll = %v, want 2ms", admitPoll)
	}
	clk := clocktest.New()
	var usage atomic.Int64
	g := NewGovernor(1000, nil)
	g.Register("test", usage.Load)

	// Under threshold: Admit returns immediately.
	usage.Store(400)
	if err := g.Admit(context.Background(), clk); err != nil {
		t.Fatalf("Admit under threshold: %v", err)
	}
	if got := g.Stats().Pauses; got != 0 {
		t.Fatalf("pauses = %d, want 0", got)
	}

	// Over threshold: Admit blocks until usage falls.
	usage.Store(950)
	released := make(chan error, 1)
	go func() { released <- g.Admit(context.Background(), clk) }()
	clk.Ticks(t, admitPoll, 1) // the first re-check still finds it high: re-armed
	select {
	case <-released:
		t.Fatal("Admit returned while over threshold")
	default:
	}
	usage.Store(100)
	clk.Step(t, admitPoll)
	if err := <-released; err != nil {
		t.Fatalf("Admit after pressure relief: %v", err)
	}
	st := g.Stats()
	if st.Pauses != 1 || st.PausedNanos != int64(2*admitPoll) {
		t.Fatalf("stats after pause: pauses=%d pausedNanos=%d, want 1 and two re-checks", st.Pauses, st.PausedNanos)
	}
}

func TestGovernorAdmitHonoursContext(t *testing.T) {
	clk := clocktest.New()
	var usage atomic.Int64
	usage.Store(999)
	g := NewGovernor(1000, nil)
	g.Register("test", usage.Load)

	ctx, cancel := context.WithCancel(context.Background())
	released := make(chan error, 1)
	go func() { released <- g.Admit(ctx, clk) }()
	clk.Await(t, admitPoll) // blocked at the gate
	cancel()
	if err := <-released; err != context.Canceled {
		t.Fatalf("Admit on cancel = %v, want context.Canceled", err)
	}
}

func TestGovernorNilIsNoOp(t *testing.T) {
	var g *Governor
	if err := g.Admit(context.Background(), Runtime); err != nil {
		t.Fatalf("nil Admit: %v", err)
	}
	if g.Pressure() != 0 || g.Usage() != 0 || g.Limit() != 0 {
		t.Fatal("nil governor reported non-zero state")
	}
	if st := g.Stats(); st.LimitBytes != 0 {
		t.Fatalf("nil Stats = %+v", st)
	}
}

func TestGovernorStatsAndMetrics(t *testing.T) {
	var a, b, late atomic.Int64
	a.Store(300)
	b.Store(200)
	reg := telemetry.NewRegistry()
	g := NewGovernor(1000, reg)
	g.Register("arena", a.Load)
	g.Register("engine", b.Load)

	st := g.Stats()
	if st.UsageBytes != 500 || st.Components["arena"] != 300 || st.Components["engine"] != 200 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Pressure != 0.5 {
		t.Fatalf("pressure = %v, want 0.5", st.Pressure)
	}

	wantMetrics := func(wants ...string) {
		t.Helper()
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		for _, want := range wants {
			if !strings.Contains(sb.String(), want+"\n") {
				t.Fatalf("metrics missing %q in:\n%s", want, sb.String())
			}
		}
	}
	wantMetrics(
		"mfa_guard_mem_limit_bytes 1000",
		"mfa_guard_mem_usage_bytes 500",
		"mfa_guard_mem_pressure 0.5",
		`mfa_guard_mem_component_bytes{component="arena"} 300`,
		`mfa_guard_mem_component_bytes{component="engine"} 200`,
		"mfa_guard_mem_pauses_total 0")

	// A component registered after the first scrape — a tenant created by
	// PUT /tenants/<id>/rules while serving — gets its series like the
	// ones registered at boot: there is no "register metrics last" rule.
	late.Store(100)
	g.Register("tenant:late", late.Load)
	wantMetrics(`mfa_guard_mem_component_bytes{component="tenant:late"} 100`, "mfa_guard_mem_usage_bytes 600")

	// Every row is its GovernorStats field, and every field has a row.
	st, snap := g.Stats(), reg.Snapshot()
	for _, row := range governorRows {
		if m, ok := snap.Get(row.Name); !ok || m.Kind != row.Kind || m.Value != row.Get(&st) {
			t.Errorf("%s = %+v, GovernorStats says %v", row.Name, m, row.Get(&st))
		}
	}
	rt := reflect.TypeOf(st)
	for i := 0; i < rt.NumField(); i++ {
		var zero, probe GovernorStats
		switch f := reflect.ValueOf(&probe).Elem().Field(i); {
		case f.CanInt():
			f.SetInt(1)
		case f.CanFloat():
			f.SetFloat(1)
		default:
			// Components: the component=<name> family Register adds to,
			// checked series by series above.
			if rt.Field(i).Name != "Components" {
				t.Errorf("GovernorStats.%s: a %s the test cannot probe", rt.Field(i).Name, f.Kind())
			}
			continue
		}
		served := false
		for _, row := range governorRows {
			served = served || row.Get(&probe) != row.Get(&zero)
		}
		if !served {
			t.Errorf("GovernorStats.%s is served by no row of governorRows", rt.Field(i).Name)
		}
	}
}

// TestBreakerLifecycle walks the restart policy's constants: eight
// failures in a row are tolerated behind a backoff of 100ms doubling to
// 5s, the ninth opens the breaker for 10s, and each failed probe doubles
// the open interval up to 2m. Moving any constant one step fails it.
func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker()
	if b.State() != BreakerClosed {
		t.Fatalf("initial state = %v", b.State())
	}
	ms := time.Millisecond
	for i, want := range []time.Duration{100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 3200 * ms, 5 * time.Second, 5 * time.Second} {
		if st, wait := b.Failure(0); st != BreakerClosed || wait != want {
			t.Fatalf("failure %d: state=%v wait=%v, want closed and %v", i+1, st, wait, want)
		}
	}
	st, wait := b.Failure(0)
	if st != BreakerOpen || wait != 10*time.Second {
		t.Fatalf("failure %d: state=%v wait=%v, want open for 10s", FailureBudget+1, st, wait)
	}
	if b.Opens() != 1 {
		t.Fatalf("opens = %d, want 1", b.Opens())
	}

	// Probe → half-open; a half-open failure re-opens with doubled wait,
	// capped at 2m.
	for _, want := range []time.Duration{20 * time.Second, 40 * time.Second, 80 * time.Second, 2 * time.Minute, 2 * time.Minute} {
		b.Probe()
		if b.State() != BreakerHalfOpen {
			t.Fatalf("after probe: state=%v", b.State())
		}
		if st, wait = b.Failure(0); st != BreakerOpen || wait != want {
			t.Fatalf("half-open failure: state=%v wait=%v, want open for %v", st, wait, want)
		}
	}
	if b.Probes() != 5 {
		t.Fatalf("probes = %d, want 5", b.Probes())
	}

	// A successful probe closes the breaker and refills the budget.
	b.Probe()
	b.Healthy()
	if b.State() != BreakerClosed {
		t.Fatalf("after success: state=%v", b.State())
	}
	if st, wait := b.Failure(0); st != BreakerClosed || wait != 100*ms {
		t.Fatalf("budget not refilled or backoff not rewound: state=%v wait=%v", st, wait)
	}
	// And the open interval restarts from 10s.
	for i := 1; i < FailureBudget; i++ {
		b.Failure(0)
	}
	if st, wait := b.Failure(0); st != BreakerOpen || wait != 10*time.Second {
		t.Fatalf("interval not reset: state=%v wait=%v", st, wait)
	}
}

// TestBreakerHealthyRunRefillsBudget: a failing run that lasted 30s
// refills the budget first; one that lasted a nanosecond less does not.
func TestBreakerHealthyRunRefillsBudget(t *testing.T) {
	b := NewBreaker()
	for i := 0; i < FailureBudget; i++ {
		b.Failure(0) // the budget spent with crash-loop failures
	}
	if st, _ := b.Failure(30*time.Second - 1); st != BreakerOpen || b.Resets() != 0 {
		t.Fatalf("a run 1ns short of 30s refilled the budget: state %v, resets %d", st, b.Resets())
	}
	b.Probe()
	// A failure after a healthy run refills first: it counts as failure
	// #1 against a fresh budget, so the breaker closes.
	if st, wait := b.Failure(30 * time.Second); st != BreakerClosed || wait != 100*time.Millisecond {
		t.Fatalf("after a 30s run: state %v wait %v, want closed and 100ms", st, wait)
	}
	if b.Resets() != 1 {
		t.Fatalf("resets = %d, want 1", b.Resets())
	}
	// Healthy() (the mid-run timer path) also refills.
	for i := 1; i < FailureBudget; i++ {
		b.Failure(0)
	}
	b.Healthy()
	if st, _ := b.Failure(0); st != BreakerClosed {
		t.Fatalf("state after Healthy+failure = %v, want closed", st)
	}
}

func TestBreakerStateString(t *testing.T) {
	cases := map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerOpen:     "open",
		BreakerHalfOpen: "half-open",
		BreakerState(9): "unknown",
	}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Fatalf("BreakerState(%d).String() = %q, want %q", st, got, want)
		}
	}
}
