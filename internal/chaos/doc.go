// Package chaos is the standing chaos harness: a build-tagged test
// suite that composes the deterministic faults of internal/faultinject
// with the recovery machinery grown across the serving stack — stall
// watchdog, flow quarantine, crash budgets, source circuit breakers,
// the memory governor, hot reload — and asserts the global invariants
// hold while everything misbehaves at once:
//
//   - Accounting identity: every segment handed to the engine is
//     scanned or counted in exactly one drop bucket.
//   - Liveness: the watchdog detects a stuck scan within its deadline,
//     the stalled flow is quarantined, and sibling shards keep serving.
//   - Recovery: stalled and wedged shards return to healthy, and a
//     memory burst plateaus below -max-memory instead of growing
//     without bound. (A flapping source's half-open re-entry waits out
//     a restart schedule of seconds to minutes, so it is tested on
//     internal/input's manual clock instead:
//     TestFlappingSourceBreakerEndToEnd.)
//   - Hygiene: no goroutine leaks (internal/leakcheck) and no data
//     races (the suite is meant to run under -race).
//
// The suite lives behind a build tag so ordinary `go test ./...` stays
// fast; run it with:
//
//	go test -tags chaos -race ./internal/chaos
//
// CI runs the same invocation with -short as the chaos-smoke job.
package chaos
