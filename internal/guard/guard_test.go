package guard

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestWatchdogFiresOncePerStuckStep(t *testing.T) {
	ft := &fakeTarget{}
	w := NewWatchdog(WatchdogConfig{Deadline: 10 * time.Millisecond, WedgeAfter: 40 * time.Millisecond}, ft)
	defer w.Stop()

	seq := ft.begin(time.Now())
	waitFor(t, "stall fire", func() bool { return ft.stalls.Load() == 1 })
	if got := ft.lastStall.Load(); got != seq {
		t.Fatalf("Stall(seq) = %d, want %d", got, seq)
	}
	waitFor(t, "wedge fire", func() bool { return ft.wedges.Load() == 1 })
	// Stays stuck: neither callback fires again for the same step.
	time.Sleep(60 * time.Millisecond)
	if s, wd := ft.stalls.Load(), ft.wedges.Load(); s != 1 || wd != 1 {
		t.Fatalf("repeated callbacks for one step: stalls=%d wedges=%d", s, wd)
	}
	if w.Fires() != 1 || w.Wedges() != 1 {
		t.Fatalf("watchdog counters: fires=%d wedges=%d, want 1/1", w.Fires(), w.Wedges())
	}

	// A new step resets the per-step flags and can stall again.
	ft.begin(time.Now())
	waitFor(t, "second stall fire", func() bool { return ft.stalls.Load() == 2 })
}

func TestWatchdogIgnoresIdleAndFastSteps(t *testing.T) {
	ft := &fakeTarget{}
	w := NewWatchdog(WatchdogConfig{Deadline: 25 * time.Millisecond}, ft)
	defer w.Stop()

	// Fast steps: begin/finish well under the deadline, repeatedly.
	for i := 0; i < 20; i++ {
		ft.begin(time.Now())
		time.Sleep(time.Millisecond)
		ft.finish()
	}
	// Idle for several deadlines.
	time.Sleep(80 * time.Millisecond)
	if s := ft.stalls.Load(); s != 0 {
		t.Fatalf("false positive: %d stalls on fast/idle target", s)
	}
}

func TestWatchdogStopIsIdempotent(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{Deadline: time.Millisecond}, &fakeTarget{})
	w.Stop()
	w.Stop()
}

func TestGovernorAdmitBlocksOverThreshold(t *testing.T) {
	var usage atomic.Int64
	g := NewGovernor(1000, nil)
	g.Register("test", usage.Load)

	// Under threshold: Admit returns immediately.
	usage.Store(400)
	if err := g.Admit(context.Background()); err != nil {
		t.Fatalf("Admit under threshold: %v", err)
	}
	if got := g.Stats().Pauses; got != 0 {
		t.Fatalf("pauses = %d, want 0", got)
	}

	// Over threshold: Admit blocks until usage falls.
	usage.Store(950)
	released := make(chan error, 1)
	go func() { released <- g.Admit(context.Background()) }()
	select {
	case <-released:
		t.Fatal("Admit returned while over threshold")
	case <-time.After(20 * time.Millisecond):
	}
	usage.Store(100)
	select {
	case err := <-released:
		if err != nil {
			t.Fatalf("Admit after pressure relief: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Admit did not return after pressure relief")
	}
	st := g.Stats()
	if st.Pauses != 1 || st.PausedNanos <= 0 {
		t.Fatalf("stats after pause: pauses=%d pausedNanos=%d", st.Pauses, st.PausedNanos)
	}
}

func TestGovernorAdmitHonoursContext(t *testing.T) {
	var usage atomic.Int64
	usage.Store(999)
	g := NewGovernor(1000, nil)
	g.Register("test", usage.Load)

	ctx, cancel := context.WithCancel(context.Background())
	released := make(chan error, 1)
	go func() { released <- g.Admit(ctx) }()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-released:
		if err != context.Canceled {
			t.Fatalf("Admit on cancel = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Admit ignored context cancellation")
	}
}

func TestGovernorNilIsNoOp(t *testing.T) {
	var g *Governor
	if err := g.Admit(context.Background()); err != nil {
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

func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker(BreakerConfig{
		FailureBudget: 2,
		BackoffBase:   time.Millisecond,
		OpenBase:      10 * time.Millisecond,
		OpenMax:       25 * time.Millisecond,
		HealthyAfter:  time.Hour,
	})
	if b.State() != BreakerClosed {
		t.Fatalf("initial state = %v", b.State())
	}

	// Budget tolerates FailureBudget failures, each behind a doubling
	// backoff, then opens.
	for i := 0; i < 2; i++ {
		if st, wait := b.Failure(0); st != BreakerClosed || wait != time.Millisecond<<i {
			t.Fatalf("failure %d: state=%v wait=%v", i, st, wait)
		}
	}
	st, wait := b.Failure(0)
	if st != BreakerOpen || wait != 10*time.Millisecond {
		t.Fatalf("open transition: state=%v wait=%v", st, wait)
	}
	if b.Opens() != 1 {
		t.Fatalf("opens = %d, want 1", b.Opens())
	}

	// Probe → half-open; a half-open failure re-opens with doubled wait.
	b.Probe()
	if b.State() != BreakerHalfOpen || b.Probes() != 1 {
		t.Fatalf("after probe: state=%v probes=%d", b.State(), b.Probes())
	}
	st, wait = b.Failure(0)
	if st != BreakerOpen || wait != 20*time.Millisecond {
		t.Fatalf("half-open failure: state=%v wait=%v", st, wait)
	}
	// Next open interval is capped at OpenMax.
	b.Probe()
	if _, wait = b.Failure(0); wait != 25*time.Millisecond {
		t.Fatalf("capped wait = %v, want 25ms", wait)
	}

	// A successful probe closes the breaker and refills the budget.
	b.Probe()
	b.Healthy()
	if b.State() != BreakerClosed {
		t.Fatalf("after success: state=%v", b.State())
	}
	if st, wait := b.Failure(0); st != BreakerClosed || wait != time.Millisecond {
		t.Fatalf("budget not refilled or backoff not rewound: state=%v wait=%v", st, wait)
	}
	// And the open interval restarts from OpenBase.
	b.Failure(0)
	if st, wait := b.Failure(0); st != BreakerOpen || wait != 10*time.Millisecond {
		t.Fatalf("interval not reset: state=%v wait=%v", st, wait)
	}
}

func TestBreakerHealthyRunRefillsBudget(t *testing.T) {
	b := NewBreaker(BreakerConfig{
		FailureBudget: 1,
		OpenBase:      10 * time.Millisecond,
		HealthyAfter:  50 * time.Millisecond,
	})
	// Spend the budget with crash-loop failures.
	b.Failure(0)
	// A failure after a long healthy run refills first: it counts as
	// failure #1 against a fresh budget, so the breaker stays closed.
	if st, _ := b.Failure(time.Second); st != BreakerClosed {
		t.Fatalf("state after healthy-run failure = %v, want closed", st)
	}
	if b.Resets() == 0 {
		t.Fatal("healthy run did not count as a reset")
	}
	// Healthy() (the mid-run timer path) also refills.
	b.Failure(0) // budget spent again (failures=2 > 1 would open — check)
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
