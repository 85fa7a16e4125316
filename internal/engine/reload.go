// Zero-downtime pattern-set hot reload.
//
// A long-lived daemon cannot restart to pick up a new rule set, and the
// paper's flow model says it never needs to: per-flow matching state is
// an opaque context tied to the automaton that created it, so swapping
// automata is just swapping runner factories. The engine versions those
// factories as *generations*. Reload installs generation N+1 atomically
// for dispatch purposes — the factory the shards consult lives in one
// atomic pointer — and then delivers a swap command to every shard,
// which applies it on its own goroutine between segments (shards own
// their assemblers exclusively; nothing else may touch them). From the
// moment a shard applies the command, every flow it creates runs the
// new generation; what happens to flows already in flight is the
// ReloadPolicy:
//
//   - ReloadDrain: in-flight flows keep matching on the generation they
//     started with until they end (FIN/RST, eviction, idle sweep). No
//     flow is dropped and no in-flight match stream is perturbed — the
//     old automaton stays referenced until its last flow drains, then
//     becomes garbage.
//   - ReloadReset: in-flight flows restart matching on the new
//     generation immediately (TCP reassembly state is preserved;
//     matcher state restarts from q0). Matches already confirmed stand;
//     partially-advanced old-generation state is discarded.
//
// Either way the per-shard runner free lists are emptied on swap, so a
// recycled runner compiled for a superseded automaton can never serve a
// new flow (flow.SetGeneration), and validation of the *candidate*
// automaton — decode plus a self-check scan — is the caller's job
// before Reload is invoked (core.MFA.SelfCheck; cmd/mfaserve wires it).
//
// Reload itself never blocks on shard queues: commands land in per-shard
// atomic slots with a non-blocking wake, so a reload completes promptly
// even against a backlogged or stalled shard (the stalled shard applies
// the swap when it next breathes — its flows are exactly the ones a
// drain policy would leave on the old generation anyway).

package engine

import (
	"errors"
	"fmt"
	"strconv"

	"matchfilter/internal/flow"
	"matchfilter/internal/telemetry"
)

// ReloadPolicy selects what happens to in-flight flows when Reload
// installs a new generation.
type ReloadPolicy int

const (
	// ReloadDrain lets existing flows finish on the generation they
	// started with; only new flows use the new one. Zero disruption.
	ReloadDrain ReloadPolicy = iota
	// ReloadReset restarts every existing flow's matching state on the
	// new generation immediately.
	ReloadReset
)

func (p ReloadPolicy) String() string {
	switch p {
	case ReloadDrain:
		return "drain"
	case ReloadReset:
		return "reset"
	default:
		return fmt.Sprintf("ReloadPolicy(%d)", int(p))
	}
}

// ParseReloadPolicy maps the flag spellings to a policy.
func ParseReloadPolicy(s string) (ReloadPolicy, error) {
	switch s {
	case "drain":
		return ReloadDrain, nil
	case "reset":
		return ReloadReset, nil
	default:
		return 0, fmt.Errorf("engine: unknown reload policy %q (want drain or reset)", s)
	}
}

// generation is one installed runner factory. Engine.gen always points
// at the newest; shards hold older ones alive through their assemblers
// until the last drain-mode flow ends.
type generation struct {
	id        uint64
	newRunner func() flow.Runner
	live      *telemetry.Gauge // per-generation live-flow gauge; may be nil
	// acct is the owning tenant's accounting block, handed to
	// flow.SetTenantGeneration so shards enforce that tenant's quotas;
	// nil for the default (tenant-0) rule set, which is unquota'd here
	// (the engine-wide governor covers it).
	acct *flow.TenantAcct
}

// flowGen is the generation in the shape flow.SetGeneration consumes.
func (g *generation) flowGen() flow.Generation {
	return flow.Generation{ID: g.id, New: g.newRunner, Live: g.live}
}

// genCommand is one pending swap, delivered to every shard.
type genCommand struct {
	gen   *generation
	reset bool
}

// Generation reports the id of the generation new flows start on. It
// begins at 1 and bumps on every successful Reload.
func (e *Engine) Generation() uint64 { return e.gen.Load().id }

// Reload atomically installs newRunner as the next pattern generation
// and delivers the swap to every shard. It returns the new generation
// id. Segments dispatched after Reload returns are guaranteed to see
// the swap before they are scanned (shards apply pending commands
// before each segment), so a flow whose first segment arrives after a
// reload always starts on the new generation. Reload never waits on
// shard queues and is safe to call concurrently with Handle calls;
// concurrent Reloads serialize. After Close it returns ErrClosed.
//
// Validation is deliberately not Reload's job: callers must vet the
// candidate (decode + core.MFA.SelfCheck or equivalent) first, so that
// a bad rules file is rejected while the running generation keeps
// serving untouched.
func (e *Engine) Reload(newRunner func() flow.Runner, policy ReloadPolicy) (uint64, error) {
	if newRunner == nil {
		return 0, errors.New("engine: reload with nil runner factory")
	}
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()
	if e.isClosed() {
		return 0, ErrClosed
	}
	next := &generation{id: e.gen.Load().id + 1, newRunner: newRunner}
	if e.cfg.Metrics != nil {
		next.live = registerGenerationGauge(e.cfg.Metrics, next.id)
	}
	e.gen.Store(next)
	cmd := &genCommand{gen: next, reset: policy == ReloadReset}
	for _, s := range e.shards {
		s.genCmd.Store(cmd)
		s.in.Poke()
	}
	return next.id, nil
}

// applyGeneration consumes a pending swap command, if any. Runs on the
// shard goroutine only.
func (s *shard) applyGeneration(e *Engine) {
	cmd := s.genCmd.Swap(nil)
	if cmd == nil {
		return
	}
	s.asm.SetGeneration(cmd.gen.flowGen(), cmd.reset)
	s.publish()
}

// registerGenerationGauge creates the exact live-flow gauge for one
// generation, labelled by id. Superseded generations read 0 once their
// flows drain; the series stays registered (one per reload) so a scrape
// can watch a drain complete.
func registerGenerationGauge(reg *telemetry.Registry, id uint64) *telemetry.Gauge {
	return reg.Gauge("mfa_generation_live_flows",
		"Live flows on each pattern generation (exact; drained generations read 0).",
		telemetry.L("generation", strconv.FormatUint(id, 10)))
}
