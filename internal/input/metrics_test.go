package input

import (
	"context"
	"reflect"
	"testing"
	"time"

	"matchfilter/internal/guard"
	"matchfilter/internal/leakcheck"
	"matchfilter/internal/telemetry"
)

// mirrors checks a row table against the registry: every row's series in
// snap, under labels, has the row's kind and the value the row reads from
// the Stats value itself.
func mirrors[T any](t *testing.T, snap telemetry.Snapshot, rows []telemetry.Row[T], st *T, labels ...telemetry.Label) {
	t.Helper()
	for _, row := range rows {
		m, ok := snap.Get(row.Name, labels...)
		if !ok || m.Kind != row.Kind || m.Value != row.Get(st) {
			t.Errorf("%s%v = %+v (registered %t), want %s %v", row.Name, labels, m.Value, ok, row.Kind, row.Get(st))
		}
	}
}

// unserved names the exported numeric fields of T that no row reads: set
// alone in a zero T, they move no row's value. This is where reflection
// lives — in the test; the tables themselves are explicit.
func unserved[T any](tables ...[]telemetry.Row[T]) []string {
	var names []string
	var zero T
	rt := reflect.TypeOf(zero)
	for i := 0; i < rt.NumField(); i++ {
		var probe T
		switch f := reflect.ValueOf(&probe).Elem().Field(i); {
		case !rt.Field(i).IsExported():
			continue // the codes behind State and Breaker, not counters
		case f.CanInt():
			f.SetInt(1)
		case f.CanUint():
			f.SetUint(1)
		default:
			continue // the strings: names and states, not counters
		}
		served := false
		for _, rows := range tables {
			for _, row := range rows {
				served = served || row.Get(&probe) != row.Get(&zero)
			}
		}
		if !served {
			names = append(names, rt.Field(i).Name)
		}
	}
	return names
}

// TestMetricsMirrorStats runs a paced finite source and a flapping
// infinite one to completion and checks every row table against the
// structs /statsz serves: each series is its SourceStats or ArenaStats
// field, and each numeric field has a series or a reason here for having
// none.
func TestMetricsMirrorStats(t *testing.T) {
	leakcheck.Check(t)
	reg := telemetry.NewRegistry()
	useManualClock(t).Drive(t, shortWaits) // pacing and backoffs
	sup := NewSupervisor(Config{Sink: newCollectSink(), Metrics: reg})
	sup.AddOptions(&leasingSource{name: "paced", segs: 20, lease: 1000}, SourceOptions{RateBytesPerSec: 1 << 20, Tenant: 3})
	sup.Add(&flakyInfiniteSource{name: "flap", failBefore: 2, segs: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sup.Run(ctx); err != nil || ctx.Err() != nil {
		t.Fatalf("Run: %v (ctx %v)", err, ctx.Err())
	}

	snap, rows := reg.Snapshot(), sup.Stats()
	paced, flap := rows[0], rows[1]
	mirrors(t, snap, sourceRows, &paced, telemetry.L("source", "paced"))
	mirrors(t, snap, rateRows, &paced, telemetry.L("source", "paced"))
	mirrors(t, snap, sourceRows, &flap, telemetry.L("source", "flap"))
	mirrors(t, snap, breakerRows, &flap, telemetry.L("source", "flap"))
	arena := sup.Arena().Stats()
	mirrors(t, snap, arenaRows, &arena)
	if paced.Segments != 22 || paced.RatePausedNanos == 0 || flap.Restarts != 2 || flap.Breaker != "closed" || arena.Leases != 28 {
		t.Errorf("the run left the rows nothing to show: paced %+v, flap %+v, arena %+v", paced, flap, arena)
	}
	// The state gauges serve the codes of the names /statsz shows.
	if flap.state != StateDone || flap.State != "done" || flap.breaker != guard.BreakerClosed {
		t.Errorf("flap: state %d (%q), breaker %d (%q)", flap.state, flap.State, flap.breaker, flap.Breaker)
	}
	// Only a paced source has the rate series, only an infinite one the
	// breaker series.
	if _, ok := snap.Get("mfa_input_rate_bytes_per_sec", telemetry.L("source", "flap")); ok {
		t.Error("an unpaced source registered rate series")
	}
	if _, ok := snap.Get("mfa_guard_breaker_state", telemetry.L("source", "paced")); ok {
		t.Error("a finite source registered breaker series")
	}

	for _, name := range unserved(sourceRows, rateRows, breakerRows) {
		if name != "Tenant" { // a binding the source was registered with, not a count
			t.Errorf("SourceStats.%s is served by no row", name)
		}
	}
	for _, name := range unserved(arenaRows) {
		if name != "BytesLeased" { // the memory governor's "arena" component: mfa_guard_mem_component_bytes
			t.Errorf("ArenaStats.%s is served by no row", name)
		}
	}
}
