package input

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"matchfilter/internal/guard"
	"matchfilter/internal/leakcheck"
)

func runSupervisor(t *testing.T, cfg Config, srcs ...Source) ([]SourceStats, error) {
	t.Helper()
	leakcheck.Check(t)
	sup := NewSupervisor(cfg)
	for _, s := range srcs {
		sup.Add(s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := sup.Run(ctx)
	if ctx.Err() != nil {
		t.Fatal("supervisor did not finish")
	}
	return sup.Stats(), err
}

// TestAccountingSumsToSinkTotals is the core bookkeeping invariant:
// with no drops, per-source segment and byte counters sum exactly to
// what the sink accepted — three concurrent sources, one of them
// restarting, all under the race detector in CI.
func TestAccountingSumsToSinkTotals(t *testing.T) {
	sink := newCollectSink()
	a := &memSource{name: "a", flows: [][]byte{make([]byte, 4096), make([]byte, 100)}}
	b := &memSource{name: "b", flows: [][]byte{make([]byte, 10000)}, chunk: 333}
	flaky := &memSource{name: "flaky", flows: [][]byte{make([]byte, 2048)}, failBefore: 2}
	useManualClock(t).Drive(t, shortWaits) // through flaky's backoffs
	stats, err := runSupervisor(t, Config{Sink: sink, QueueDepth: 4}, a, b, flaky)
	if err != nil {
		t.Fatal(err)
	}

	wantSegs := a.segCount() + b.segCount() + flaky.segCount()
	wantBytes := a.byteCount() + b.byteCount() + flaky.byteCount()
	gotSegs, gotBytes := sink.counts()
	if gotSegs != wantSegs || gotBytes != wantBytes {
		t.Fatalf("sink got %d segments / %d bytes, want %d / %d", gotSegs, gotBytes, wantSegs, wantBytes)
	}
	var sumSegs, sumBytes int64
	for _, row := range stats {
		sumSegs += row.Segments
		sumBytes += row.PayloadBytes
		if row.State != "done" {
			t.Fatalf("source %s ended %s", row.Name, row.State)
		}
	}
	if sumSegs != gotSegs || sumBytes != gotBytes {
		t.Fatalf("per-source sums %d/%d != sink totals %d/%d", sumSegs, sumBytes, gotSegs, gotBytes)
	}
	for _, row := range stats {
		if row.Name == "flaky" && row.Restarts != 2 {
			t.Fatalf("flaky restarts: got %d, want 2", row.Restarts)
		}
	}
}

// TestFailingSourceDoesNotPerturbOthers: a permanently failing source is
// abandoned while its peers deliver their full traffic.
func TestFailingSourceDoesNotPerturbOthers(t *testing.T) {
	sink := newCollectSink()
	good := &memSource{name: "good", flows: [][]byte{make([]byte, 8192)}}
	bad := &memSource{name: "bad", permanent: true}
	stats, err := runSupervisor(t, Config{Sink: sink, QueueDepth: 4}, good, bad)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range stats {
		switch row.Name {
		case "good":
			if row.State != "done" || row.Segments != good.segCount() {
				t.Fatalf("good source perturbed: %+v", row)
			}
		case "bad":
			if row.State != "failed" || row.Segments != 0 {
				t.Fatalf("bad source: %+v", row)
			}
			if !strings.Contains(row.LastError, "scripted permanent failure") {
				t.Fatalf("bad source lastErr: %q", row.LastError)
			}
		}
	}
}

// TestRestartBudgetExhaustion: a source that never stops failing is
// abandoned after its budget of eight, with the restart count visible,
// having waited out the whole doubling backoff on the way.
func TestRestartBudgetExhaustion(t *testing.T) {
	sink := newCollectSink()
	hopeless := &memSource{name: "hopeless", failBefore: 1 << 30}
	clk := useManualClock(t)
	start := clk.Now()
	clk.Drive(t, shortWaits)
	stats, err := runSupervisor(t, Config{Sink: sink}, hopeless)
	if err != nil {
		t.Fatal(err)
	}
	row := stats[0]
	if row.State != "failed" || row.Restarts != guard.FailureBudget+1 {
		t.Fatalf("hopeless source: state %s, restarts %d (want failed after budget %d)", row.State, row.Restarts, guard.FailureBudget)
	}
	// 100ms doubling to 5s, eight times.
	if waited := clk.Now().Sub(start); waited != 16300*time.Millisecond {
		t.Fatalf("backoffs summed to %v, want 16.3s", waited)
	}
}

// panicSource panics mid-run: the supervisor must treat it as a failing
// source, not crash the process.
type panicSource struct{ attempts int32 }

func (p *panicSource) Describe() Description {
	return Description{Name: "panicky", Kind: "mem", Finite: true}
}

func (p *panicSource) Run(ctx context.Context, em *Emitter) error {
	if p.attempts++; p.attempts == 1 {
		panic("scripted source panic")
	}
	return nil
}

func TestSourcePanicIsAFailure(t *testing.T) {
	clk := useManualClock(t)
	clk.Drive(t, shortWaits)
	stats, err := runSupervisor(t, Config{Sink: newCollectSink()}, &panicSource{})
	if err != nil {
		t.Fatal(err)
	}
	if row := stats[0]; row.State != "done" || row.Restarts != 1 {
		t.Fatalf("panicking source: %+v", row)
	}
}

// malformedSource pushes one undecodable frame through the policy.
type malformedSource struct{}

func (malformedSource) Describe() Description {
	return Description{Name: "mal", Kind: "mem", Finite: true}
}

func (malformedSource) Run(ctx context.Context, em *Emitter) error {
	return em.Frame([]byte{0x01, 0x02, 0x03}, nil)
}

func TestStrictPolicy(t *testing.T) {
	// Lenient: counted, skipped, clean run.
	stats, err := runSupervisor(t, Config{Sink: newCollectSink()}, malformedSource{})
	if err != nil {
		t.Fatalf("lenient mode: %v", err)
	}
	if row := stats[0]; row.State != "done" || row.Malformed != 1 {
		t.Fatalf("lenient row: %+v", row)
	}

	// Strict: the typed abort surfaces from Run, attributed to the source.
	stats, err = runSupervisor(t, Config{Sink: newCollectSink(), Strict: true}, malformedSource{})
	var se *StrictError
	if !errors.As(err, &se) {
		t.Fatalf("strict mode: got %v, want *StrictError", err)
	}
	if se.Source != "mal" {
		t.Fatalf("strict error source: %q", se.Source)
	}
	if row := stats[0]; row.State != "failed" {
		t.Fatalf("strict row: %+v", row)
	}
}

// TestStrictAbortStopsPeers: one source's strict abort cancels the
// others promptly even when they are infinite.
func TestStrictAbortStopsPeers(t *testing.T) {
	sink := newCollectSink()
	sup := NewSupervisor(Config{Sink: sink, Strict: true})
	sup.Add(&Spool{Dir: t.TempDir()}) // infinite
	sup.Add(malformedSource{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := sup.Run(ctx)
	if ctx.Err() != nil {
		t.Fatal("strict abort did not stop the infinite peer")
	}
	var se *StrictError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want *StrictError", err)
	}
}

// TestSinkErrorIsFatal: a sink shutting down underneath the pipeline
// terminates Run with the sink's error.
func TestSinkErrorIsFatal(t *testing.T) {
	sink := newCollectSink()
	sink.fail = errors.New("engine closed")
	_, err := runSupervisor(t, Config{Sink: sink},
		&memSource{name: "m", flows: [][]byte{make([]byte, 64)}})
	if err == nil || !strings.Contains(err.Error(), "engine closed") {
		t.Fatalf("got %v, want the sink's terminal error", err)
	}
}

// TestNameDeduplication: two sources with the same name get distinct
// telemetry labels.
func TestNameDeduplication(t *testing.T) {
	stats, err := runSupervisor(t, Config{Sink: newCollectSink()},
		&memSource{name: "dup"}, &memSource{name: "dup"})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Name == stats[1].Name {
		t.Fatalf("duplicate source names survived: %q / %q", stats[0].Name, stats[1].Name)
	}
}
