// Resource-governance tests for the input layer: the circuit breaker
// that replaces permanent source death, the healthy-run budget refill,
// and the memory governor's admission gate on leasing.
package input

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"matchfilter/internal/guard"
	"matchfilter/internal/leakcheck"
	"matchfilter/internal/pcap"
)

// flakyInfiniteSource is an infinite source (Finite=false, so it gets a
// breaker) that fails its first failBefore Run attempts, then emits a
// short flow and returns.
type flakyInfiniteSource struct {
	name       string
	failBefore int32
	segs       int
	attempts   atomic.Int32
}

func (f *flakyInfiniteSource) Describe() Description {
	return Description{Name: f.name, Kind: "mem", Detail: "test", Finite: false}
}

func (f *flakyInfiniteSource) Run(ctx context.Context, em *Emitter) error {
	if f.attempts.Add(1) <= f.failBefore {
		return errors.New("scripted flap")
	}
	srcID := sourceIDs.Add(1)
	fr := newFramer(synthFlowKey(srcID, 1, nil, 7))
	if err := em.Segment(fr.syn(), nil); err != nil {
		return err
	}
	for i := 0; i < f.segs; i++ {
		lease := em.Lease(100)
		if err := em.Segment(fr.data(lease.Data()), lease); err != nil {
			return err
		}
	}
	return em.Segment(fr.fin(), nil)
}

// runAsync starts sup.Run and returns the channel its error arrives on.
func runAsync(sup *Supervisor) <-chan error {
	done := make(chan error, 1)
	go func() { done <- sup.Run(context.Background()) }()
	return done
}

// TestBreakerReentersViaHalfOpenProbe is the acceptance scenario: a
// flapping infinite source exhausts its restart budget, the breaker
// opens with a doubling capped interval instead of abandoning the
// source, and a half-open probe re-enters service. Each wait is stepped
// on the manual clock at exactly its length.
func TestBreakerReentersViaHalfOpenProbe(t *testing.T) {
	leakcheck.Check(t)
	clk := useManualClock(t)
	sink := newCollectSink()
	// Budget 8: failures 1-8 restart after the doubling backoff, failure
	// 9 opens the breaker for 10s, the first probe (attempt 10) fails and
	// re-opens it for 20s, the second probe (attempt 11) succeeds.
	flaky := &flakyInfiniteSource{name: "flap", failBefore: guard.FailureBudget + 2, segs: 8}
	sup := NewSupervisor(Config{Sink: sink})
	sup.Add(flaky)
	done := runAsync(sup)
	ms := time.Millisecond
	for _, wait := range []time.Duration{100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 3200 * ms, 5000 * ms, 5000 * ms} {
		clk.Step(t, wait)
	}
	clk.Await(t, 10*time.Second)
	if row := sup.Stats()[0]; row.State != "open" || row.Breaker != "open" || sup.OpenBreakers() != 1 {
		t.Fatalf("after the budget: state %q, breaker %q, %d open; want open, open, 1", row.State, row.Breaker, sup.OpenBreakers())
	}
	clk.Advance(10 * time.Second)
	clk.Step(t, 20*time.Second)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	row := sup.Stats()[0]
	if row.State != "done" {
		t.Fatalf("source state %q, want done (re-entered via probing): %+v", row.State, row)
	}
	if row.Breaker != "closed" {
		t.Fatalf("breaker %q after successful probe, want closed", row.Breaker)
	}
	if row.BreakerOpens != 2 || row.BreakerProbes != 2 {
		t.Fatalf("BreakerOpens = %d, BreakerProbes = %d; want 2 (budget spend + failed probe) and 2", row.BreakerOpens, row.BreakerProbes)
	}
	if row.Restarts != guard.FailureBudget+2 {
		t.Fatalf("Restarts = %d, want %d", row.Restarts, guard.FailureBudget+2)
	}
	if n := sup.OpenBreakers(); n != 0 {
		t.Fatalf("OpenBreakers = %d after recovery, want 0", n)
	}
	if segs, _ := sink.counts(); segs != row.Segments || segs == 0 {
		t.Fatalf("sink saw %d segments, source row says %d", segs, row.Segments)
	}
}

// TestBudgetRefillsAfterHealthyRun is the regression test for the
// budget bugfix: a finite source whose failures are separated by
// sustained healthy running must not be abandoned, even when lifetime
// failures exceed the budget — only consecutive quick failures spend
// it. Each run lasts a second past HealthyAfter on the manual clock.
func TestBudgetRefillsAfterHealthyRun(t *testing.T) {
	leakcheck.Check(t)
	clk := useManualClock(t)
	runFor := guard.HealthyAfter + time.Second
	src := &healthyThenFailSource{name: "steady", failBefore: guard.FailureBudget + 2, runFor: runFor}
	sup := NewSupervisor(Config{Sink: newCollectSink()})
	sup.Add(src)
	done := runAsync(sup)
	for i := 0; i < guard.FailureBudget+2; i++ {
		clk.Step(t, runFor)
		clk.Step(t, 100*time.Millisecond) // the backoff rewound every time
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	row := sup.Stats()[0]
	if row.State != "done" {
		t.Fatalf("source abandoned despite healthy runs between failures: %+v", row)
	}
	if row.Restarts != guard.FailureBudget+2 {
		t.Fatalf("Restarts = %d, want %d (more than the budget, each after a healthy run)", row.Restarts, guard.FailureBudget+2)
	}
}

// TestBackoffRewindsAfterHealthyRun: the restart policy is one policy. A
// source that flapped at start-up and then served through a healthy
// stretch restarts after the base backoff again, whether it is finite or
// not — an infinite source used to keep its doubled interval for life,
// and after a few isolated hiccups always waited the capped backoff.
func TestBackoffRewindsAfterHealthyRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		finite bool
	}{{"finite", true}, {"infinite", false}} {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			clk := useManualClock(t)
			var mu sync.Mutex
			var waits []time.Duration
			// Three instant failures, a run that outlives HealthyAfter and
			// then fails, then a clean finish.
			healthy := guard.HealthyAfter + time.Second
			src := &scriptedSource{name: tc.name, finite: tc.finite, runs: []time.Duration{0, 0, 0, healthy}}
			sup := NewSupervisor(Config{
				Sink: newCollectSink(),
				Logf: func(format string, args ...any) {
					if strings.Contains(format, "restarting in") {
						mu.Lock()
						waits = append(waits, args[2].(time.Duration))
						mu.Unlock()
					}
				},
			})
			sup.Add(src)
			done := runAsync(sup)
			ms := time.Millisecond
			for _, d := range []time.Duration{100 * ms, 200 * ms, 400 * ms, healthy, 100 * ms} {
				clk.Step(t, d)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if row := sup.Stats()[0]; row.State != "done" || row.Restarts != 4 {
				t.Fatalf("state %s after %d restarts, want done after 4", row.State, row.Restarts)
			}
			if want := []time.Duration{100 * ms, 200 * ms, 400 * ms, 100 * ms}; !reflect.DeepEqual(waits, want) {
				t.Errorf("restart waits %v, want %v: the healthy run did not rewind the backoff", waits, want)
			}
		})
	}
}

// scriptedSource fails once per entry of runs, after running that long
// on the pipeline's clock (at once for a zero entry), then finishes
// cleanly.
type scriptedSource struct {
	name     string
	finite   bool
	runs     []time.Duration
	attempts atomic.Int32
}

func (s *scriptedSource) Describe() Description {
	return Description{Name: s.name, Kind: "mem", Detail: "test", Finite: s.finite}
}

func (s *scriptedSource) Run(ctx context.Context, em *Emitter) error {
	n := int(s.attempts.Add(1)) - 1
	if n >= len(s.runs) {
		return nil
	}
	if s.runs[n] > 0 {
		if err := runOnClock(ctx, s.runs[n]); err != nil {
			return err
		}
	}
	return errors.New("scripted failure")
}

// runOnClock stands for a run that lasts d on the pipeline's clock.
func runOnClock(ctx context.Context, d time.Duration) error {
	wake, stop := guard.After(clock, d)
	defer stop()
	select {
	case <-wake:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// healthyThenFailSource runs for runFor before each scripted failure, so
// every failure follows a "healthy" stretch.
type healthyThenFailSource struct {
	name       string
	failBefore int32
	runFor     time.Duration
	attempts   atomic.Int32
}

func (h *healthyThenFailSource) Describe() Description {
	return Description{Name: h.name, Kind: "mem", Detail: "test", Finite: true}
}

func (h *healthyThenFailSource) Run(ctx context.Context, em *Emitter) error {
	if h.attempts.Add(1) <= h.failBefore {
		if err := runOnClock(ctx, h.runFor); err != nil {
			return err
		}
		return errors.New("scripted late failure")
	}
	return nil
}

// holdSink accepts segments but parks their leases until told to let
// go — a stand-in for a slow engine whose scans retain buffers.
type holdSink struct {
	mu       sync.Mutex
	held     []pcap.Owner
	segments int64
}

func (h *holdSink) HandleSegmentOwned(seg pcap.Segment, owner pcap.Owner) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.segments++
	if owner != nil {
		h.held = append(h.held, owner)
	}
	return nil
}

func (h *holdSink) releaseAll() {
	h.mu.Lock()
	held := h.held
	h.held = nil
	h.mu.Unlock()
	for _, o := range held {
		o.Release()
	}
}

// leasingSource emits segs leased data segments on one flow.
type leasingSource struct {
	name  string
	segs  int
	lease int
}

func (l *leasingSource) Describe() Description {
	return Description{Name: l.name, Kind: "mem", Detail: "test", Finite: true}
}

func (l *leasingSource) Run(ctx context.Context, em *Emitter) error {
	srcID := sourceIDs.Add(1)
	fr := newFramer(synthFlowKey(srcID, 1, nil, 7))
	if err := em.Segment(fr.syn(), nil); err != nil {
		return err
	}
	for i := 0; i < l.segs; i++ {
		lease := em.Lease(l.lease)
		if err := em.Segment(fr.data(lease.Data()), lease); err != nil {
			return err
		}
	}
	return em.Segment(fr.fin(), nil)
}

// TestGovernorPausesLeasing is the -max-memory acceptance scenario at
// the input layer: with leases retained downstream, a burst that would
// have grown the arena past the ceiling instead pauses the source at
// the admission gate, and leased bytes plateau below the limit until
// the pressure drains. The gate's re-checks run on the manual clock: the
// test lets one pass only after draining, and the paused time is exactly
// the re-checks it let pass.
func TestGovernorPausesLeasing(t *testing.T) {
	leakcheck.Check(t)
	clk := useManualClock(t)
	const limit = 64 << 10
	arena := &Arena{}
	gov := guard.NewGovernor(limit, nil)
	gov.Register("arena", arena.BytesLeased)

	sink := &holdSink{}
	// 50 leases of 2K each = 100K total churn, well past the 64K
	// ceiling if nothing paused.
	src := &leasingSource{name: "burst", segs: 50, lease: 2 << 10}
	sup := NewSupervisor(Config{Sink: sink, Arena: arena, Governor: gov})
	sup.Add(src)
	done, finished := make(chan error, 1), make(chan struct{})
	go func() {
		done <- sup.Run(context.Background())
		close(finished)
	}()

	// Each time the source sits at the gate (its re-check armed), check
	// the plateau, drain like a recovering engine would, and let the
	// re-check run.
	var rechecks int
	var paused time.Duration
	for {
		d, ok := clk.Wait(func(d time.Duration) bool { return d < shortWaits }, finished)
		if !ok {
			break
		}
		if leased := arena.BytesLeased(); leased > limit {
			t.Fatalf("leased bytes %d exceeded the %d ceiling", leased, limit)
		}
		sink.releaseAll()
		clk.Advance(d)
		rechecks++
		paused += d
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if leased := arena.BytesLeased(); leased > limit {
		t.Fatalf("leased bytes %d exceeded the %d ceiling", leased, limit)
	}
	sink.releaseAll()
	if rechecks == 0 {
		t.Fatalf("governor never paused; leased=%d", arena.BytesLeased())
	}
	if st := gov.Stats(); st.Pauses == 0 || st.PausedNanos != int64(paused) {
		t.Fatalf("pause accounting: %+v, want PausedNanos %d over %d re-checks", st, paused, rechecks)
	}
	if got := arena.BytesLeased(); got != 0 {
		t.Fatalf("leaked leases: %d bytes still out", got)
	}
}
