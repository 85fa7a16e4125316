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
	runFor     time.Duration // how long each failing run lasts
	attempts   atomic.Int32
}

func (f *flakyInfiniteSource) Describe() Description {
	return Description{Name: f.name, Kind: "mem", Detail: "test", Finite: false}
}

func (f *flakyInfiniteSource) Run(ctx context.Context, em *Emitter) error {
	if f.attempts.Add(1) <= f.failBefore {
		if f.runFor > 0 {
			select {
			case <-time.After(f.runFor):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
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

// TestBreakerReentersViaHalfOpenProbe is the acceptance scenario: a
// flapping infinite source exhausts its restart budget, the breaker
// opens with a doubling capped interval instead of abandoning the
// source, and a half-open probe re-enters service.
func TestBreakerReentersViaHalfOpenProbe(t *testing.T) {
	leakcheck.Check(t)
	sink := newCollectSink()
	// Budget 2: failures 1-2 restart normally, failure 3 opens the
	// breaker, the first probe (attempt 4) fails and re-opens it, the
	// second probe (attempt 5) succeeds.
	flaky := &flakyInfiniteSource{name: "flap", failBefore: 4, segs: 8}
	sup := NewSupervisor(Config{
		Sink: sink, Restart: guard.BreakerConfig{FailureBudget: 2,
			BackoffBase: time.Microsecond, BackoffMax: time.Millisecond,
			OpenBase: 2 * time.Millisecond, OpenMax: 8 * time.Millisecond},
	})
	sup.Add(flaky)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sup.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Err() != nil {
		t.Fatal("supervisor did not finish")
	}
	row := sup.Stats()[0]
	if row.State != "done" {
		t.Fatalf("source state %q, want done (re-entered via probing): %+v", row.State, row)
	}
	if row.Breaker != "closed" {
		t.Fatalf("breaker %q after successful probe, want closed", row.Breaker)
	}
	if row.BreakerOpens != 2 {
		t.Fatalf("BreakerOpens = %d, want 2 (budget spend + failed probe)", row.BreakerOpens)
	}
	if row.Restarts != 4 {
		t.Fatalf("Restarts = %d, want 4", row.Restarts)
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
// it.
func TestBudgetRefillsAfterHealthyRun(t *testing.T) {
	leakcheck.Check(t)
	src := &healthyThenFailSource{name: "steady", failBefore: 6, runFor: 8 * time.Millisecond}
	stats, err := runSupervisor(t, Config{
		Sink: newCollectSink(), Restart: guard.BreakerConfig{FailureBudget: 2, HealthyAfter: 2 * time.Millisecond,
			BackoffBase: time.Microsecond, BackoffMax: time.Millisecond},
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	row := stats[0]
	if row.State != "done" {
		t.Fatalf("source abandoned despite healthy runs between failures: %+v", row)
	}
	if row.Restarts != 6 {
		t.Fatalf("Restarts = %d, want 6 (more than budget 2, each after a healthy run)", row.Restarts)
	}
}

// TestBackoffRewindsAfterHealthyRun: the restart policy is one policy. A
// source that flapped at start-up and then served through a healthy
// stretch restarts after the base backoff again, whether it is finite or
// not — an infinite source used to keep its doubled interval for life,
// and after a few isolated hiccups always waited BackoffMax.
func TestBackoffRewindsAfterHealthyRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		finite bool
	}{{"finite", true}, {"infinite", false}} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var waits []time.Duration
			// Three instant failures, a run that outlives HealthyAfter and
			// then fails, then a clean finish.
			src := &scriptedSource{name: tc.name, finite: tc.finite, runs: []time.Duration{0, 0, 0, 80 * time.Millisecond}}
			stats, err := runSupervisor(t, Config{
				Sink: newCollectSink(),
				Restart: guard.BreakerConfig{BackoffBase: time.Millisecond, BackoffMax: time.Second,
					HealthyAfter: 50 * time.Millisecond},
				Logf: func(format string, args ...any) {
					if strings.Contains(format, "restarting in") {
						mu.Lock()
						waits = append(waits, args[2].(time.Duration))
						mu.Unlock()
					}
				},
			}, src)
			if err != nil {
				t.Fatal(err)
			}
			if row := stats[0]; row.State != "done" || row.Restarts != 4 {
				t.Fatalf("state %s after %d restarts, want done after 4", row.State, row.Restarts)
			}
			ms := time.Millisecond
			if want := []time.Duration{ms, 2 * ms, 4 * ms, ms}; !reflect.DeepEqual(waits, want) {
				t.Errorf("restart waits %v, want %v: the healthy run did not rewind the backoff", waits, want)
			}
		})
	}
}

// scriptedSource fails once per entry of runs, after running that long,
// then finishes cleanly.
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
	select {
	case <-time.After(s.runs[n]):
		return errors.New("scripted failure")
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
		select {
		case <-time.After(h.runFor):
		case <-ctx.Done():
			return ctx.Err()
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
// the pressure drains.
func TestGovernorPausesLeasing(t *testing.T) {
	leakcheck.Check(t)
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

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- sup.Run(ctx) }()

	// The source must hit the gate: usage ≥ 0.9×limit with the sink
	// holding every lease.
	deadline := time.Now().Add(5 * time.Second)
	for gov.Stats().Pauses == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("governor never paused; leased=%d", arena.BytesLeased())
		}
		time.Sleep(time.Millisecond)
	}
	if leased := arena.BytesLeased(); leased > limit {
		t.Fatalf("leased bytes %d exceeded the %d ceiling", leased, limit)
	}

	// Drain like a recovering engine would, watching the plateau.
	var maxLeased int64
	for {
		if l := arena.BytesLeased(); l > maxLeased {
			maxLeased = l
		}
		sink.releaseAll()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			sink.releaseAll()
			if maxLeased > limit {
				t.Fatalf("leased bytes peaked at %d, above the %d ceiling", maxLeased, limit)
			}
			if st := gov.Stats(); st.Pauses == 0 || st.PausedNanos <= 0 {
				t.Fatalf("pause accounting missing: %+v", st)
			}
			if got := arena.BytesLeased(); got != 0 {
				t.Fatalf("leaked leases: %d bytes still out", got)
			}
			return
		case <-time.After(time.Millisecond):
		}
	}
}
