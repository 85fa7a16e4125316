// Package core implements the Match Filtering Automaton (MFA), the
// paper's primary contribution: a multi-match DFA over decomposed regex
// fragments whose match stream is post-processed by a stateful filter
// engine to yield exactly the matches of the original rules.
//
// Formally (§III-A) an MFA is the 9-tuple (Q, Σ, δ, q0, Di, Dq, w, D, f):
// Q, Σ, δ, q0 and the decision structure Di, Dq come from the DFA built
// over the splitter's fragments; w, D and f are the filter program. The
// per-flow matching context is the pair (q, m) — one DFA state and one
// w-bit memory — so multiplexing many flows costs a few bytes per flow
// (§III-B).
//
// The DFA has one table shape (a class map plus pre-scaled rows, see
// internal/dfa), and the contexts exchanged through
// Runner.Context/SetContext carry plain DFA state numbers — never scaled
// row bases — so a context saved under one table of an automaton (a flat
// image of an earlier release loads as the 256-class one) restores into
// any other. FlowBatcher (batch.go) reorders work across flows, never
// within one, so every flow's (ruleID, pos) stream is the one Feed makes.
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"matchfilter/internal/dfa"
	"matchfilter/internal/filter"
	"matchfilter/internal/nfa"
	"matchfilter/internal/regexparse"
	"matchfilter/internal/splitter"
)

// Rule is one input regex and the id reported when it matches.
type Rule struct {
	Pattern *regexparse.Pattern
	ID      int32
}

// Options configures MFA compilation. The zero value is the paper's
// configuration — both decompositions enabled, safety checks on, subset
// construction without minimization — plus position-checked splits of the
// dot-stars and almost-dot-stars those checks would refuse (DESIGN.md §8).
type Options struct {
	Splitter splitter.Options
	DFA      dfa.Options
}

// BuildStats records what compilation produced, feeding the Table V and
// Figure 2/3 experiments.
type BuildStats struct {
	Split        splitter.Stats
	NumRules     int
	NumFragments int
	NFAStates    int
	DFAStates    int // the "MFA Qs" column of Table V
	MemBits      int // w
	PosRegs      int // position registers: one per position-checked dot-star and per .{n,} gap
	Counters     int // counter registers: the bounded-repeat extension's, plus one open-window counter per Split.AlmostPositionSplits
	InternalIDs  int // |Di|
	// BuildTime is the wall-clock construction time (Figure 3).
	BuildTime time.Duration
	// SplitTime and DFATime break BuildTime down; almost all of it is
	// standard DFA construction, as §I-D claims.
	SplitTime time.Duration
	DFATime   time.Duration
	// DFABytes and FilterBytes are the memory image split of Figure 2;
	// the paper reports filters averaging under 0.2% of the image.
	DFABytes    int
	FilterBytes int
	// DFATableBytes is the transition table's share of DFABytes, the
	// 256-byte class map included; DFAClasses is the byte
	// equivalence-class count. Exposed to telemetry so /metrics and
	// /statsz report what the scan loop is actually walking.
	DFATableBytes int
	DFAClasses    int
	// The accept programs derived from the decision sets (DESIGN.md §21):
	// how many distinct sets were compiled, the widest set as ids → ops
	// (what one visit of the costliest accepting state runs), and the
	// programs' resident size. They are rebuilt on load, never
	// serialized, and so reported beside the Figure 2 image, not in it.
	// AcceptWidestQuiet is the ops a visit of the widest set runs when every
	// guard fails, AcceptLiveGuards the live guards emitted and
	// AcceptResetOnly the accepting states whose program only forgets (a
	// visit Feed skips on a flow with nothing to forget); mfabuild prints
	// them, and they stay out of /statsz, whose key set is pinned.
	AcceptPrograms     int
	AcceptWidest       struct{ IDs, Ops int }
	AcceptWidestQuiet  int `json:"-"`
	AcceptLiveGuards   int `json:"-"`
	AcceptResetOnly    int `json:"-"`
	AcceptProgramBytes int
}

// MemoryImageBytes is the total static image (Figure 2).
func (s BuildStats) MemoryImageBytes() int { return s.DFABytes + s.FilterBytes }

// MFA is a compiled match filtering automaton. It is immutable and safe
// for concurrent use by any number of flows; per-flow state lives in
// Runner.
type MFA struct {
	engine *dfa.Engine
	prog   *filter.Program
	stats  BuildStats

	// Hot-loop views of the DFA (dfa.ScanTable), cached so Runner.Feed and
	// FlowBatcher hand them to the walk without chasing the engine: the
	// pre-scaled table, the byte→column map, the row stride and the
	// divider that turns a row base back into a state number.
	trans       []uint32
	classOf     []uint8
	stride      int
	div         dfa.StrideDiv
	acceptStart uint32
	// fires[q-acceptStart] is the accept program of accepting state q:
	// the filter actions of its decision set, composed. resetOnly says the
	// same index's program only forgets, and quiet is what all such
	// programs can forget: Feed skips them on a flow quiet holds for.
	fires     []filter.AcceptProgram
	resetOnly []bool
	quiet     filter.Quiet
}

// newMFA is the one constructor behind Compile and ReadMFA: it derives
// everything that is not part of the serialized image — the hot-loop
// table views and the accept programs — and fills in the statistics that
// follow from the automaton and the filter program alone (stats carries
// the rest). The caller has checked that every decision-set id has an
// action slot.
func newMFA(d *dfa.DFA, prog *filter.Program, stats BuildStats) *MFA {
	m := &MFA{engine: dfa.NewEngine(d), prog: prog, acceptStart: d.AcceptStart()}
	m.trans, m.classOf, m.stride = d.ScanTable()
	m.div = dfa.NewStrideDiv(m.stride)
	var composed filter.ComposeStats
	m.fires, composed = prog.Compose(d.AcceptSets())
	m.resetOnly = make([]bool, len(m.fires))
	for i, ap := range m.fires {
		if m.resetOnly[i] = ap.ResetOnly(); m.resetOnly[i] {
			stats.AcceptResetOnly++
		}
	}
	m.quiet = filter.NewQuiet(m.fires)

	stats.DFAStates = d.NumStates()
	stats.PosRegs = prog.NumRegs()
	stats.Counters = prog.NumCounters()
	stats.InternalIDs = prog.NumIDs() - 1
	stats.DFABytes = d.MemoryImageBytes()
	stats.FilterBytes = prog.MemoryImageBytes()
	stats.DFATableBytes = d.TableBytes()
	stats.DFAClasses = d.NumClasses()
	stats.AcceptPrograms = composed.Programs
	stats.AcceptWidest = composed.Widest
	stats.AcceptWidestQuiet = composed.WidestQuiet
	stats.AcceptLiveGuards = composed.LiveGuards
	stats.AcceptProgramBytes = composed.Bytes
	m.stats = stats
	return m
}

// MatchFunc receives a confirmed match: the original rule id and the
// 0-based offset of the byte at which the match completed.
type MatchFunc = func(ruleID int32, pos int64)

// Compile builds the MFA for a rule set: regex splitting (Algorithm 1),
// standard subset construction over the fragments, and filter-program
// assembly.
func Compile(rules []Rule, opts Options) (*MFA, error) {
	startAll := time.Now()

	srules := make([]splitter.Rule, len(rules))
	for i, r := range rules {
		if r.Pattern == nil {
			return nil, fmt.Errorf("core: rule %d has nil pattern", r.ID)
		}
		srules[i] = splitter.Rule{Pattern: r.Pattern, RuleID: r.ID}
	}
	res, err := splitter.Split(srules, opts.Splitter)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	splitTime := time.Since(startAll)

	nfaRules := make([]nfa.Rule, len(res.Fragments))
	for i, f := range res.Fragments {
		nfaRules[i] = nfa.Rule{Pattern: f.Pattern, MatchID: int(f.InternalID)}
	}
	n, err := nfa.Build(nfaRules)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	startDFA := time.Now()
	d, err := dfa.FromNFA(n, opts.DFA)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	dfaTime := time.Since(startDFA)

	m := newMFA(d, res.Program(), BuildStats{
		Split:        res.Stats,
		NumRules:     len(rules),
		NumFragments: len(res.Fragments),
		NFAStates:    n.NumStates(),
		MemBits:      res.MemBits,
		SplitTime:    splitTime,
		DFATime:      dfaTime,
	})
	m.stats.BuildTime = time.Since(startAll)
	return m, nil
}

// Stats returns the compilation statistics.
func (m *MFA) Stats() BuildStats { return m.stats }

// Program returns the filter program (w, D, f of the 9-tuple).
func (m *MFA) Program() *filter.Program { return m.prog }

// DFA returns the character DFA (Q, Σ, δ, q0, Di, Dq of the 9-tuple).
func (m *MFA) DFA() *dfa.DFA { return m.engine.DFA() }

// Runner is one flow's matching context: the (q, m) pair of §III-B, plus
// the position registers of the counting extension and the counter
// registers of the bounded-repeat extension when the pattern set uses
// them.
type Runner struct {
	mfa  *MFA
	dfa  dfa.Runner // by value: one allocation and one pointer chase fewer
	mem  filter.Memory
	regs filter.Registers
	ctrs filter.Counters

	// visits counts the flow's accept visits since Reset (added an accept
	// word at a time by drain), and dense is
	// FlowBatcher's verdict on the flow's last scan (batch.go). Both are
	// scheduling state, not matching state: neither is part of Context.
	visits int64
	dense  bool
}

// NewRunner returns a runner positioned at the start of a fresh flow,
// with DFA state q0, all-zero filter memory and unset registers.
func (m *MFA) NewRunner() *Runner {
	return &Runner{
		mfa:  m,
		dfa:  *m.engine.NewRunner(),
		mem:  m.prog.NewMemory(),
		regs: m.prog.NewRegisters(),
		ctrs: m.prog.NewCounters(),
	}
}

// Reset rewinds the runner for a new flow.
func (r *Runner) Reset() {
	r.dfa.Reset()
	r.mem.Reset()
	r.regs.Reset()
	r.ctrs.Reset()
	r.visits, r.dense = 0, false
}

// Pos returns the number of bytes consumed so far.
func (r *Runner) Pos() int64 { return r.dfa.Pos() }

// Context returns the flow's saved state: the DFA state and copies of the
// filter memory, position registers and counter image (regs and ctrs are
// nil when the pattern set uses no counting gaps or counters). Together
// with Pos these fully capture parsing state, so multiplexed flows need
// only store this tuple (§III-B). The counters' live summary is derived
// from the image and not part of it.
func (r *Runner) Context() (state uint32, mem filter.Memory, regs filter.Registers, ctrs filter.Counters) {
	return r.dfa.State(), r.mem.Clone(), r.regs.Clone(), r.ctrs[:r.mfa.prog.CountersLen()].Clone()
}

// ErrBadContext is returned (wrapped) by SetContext when a saved flow
// context cannot belong to this automaton.
var ErrBadContext = errors.New("core: invalid flow context")

// SetContext restores a previously saved flow context, validating it
// first: a DFA state outside the automaton, a negative position,
// memory/register/counter images wider than this automaton's, or a
// counter base outside [0, pos] are rejected with an error wrapping
// ErrBadContext and the runner Reset to start-of-flow — a corrupted or
// cross-generation context must never reach the inlined Feed loop, where
// an out-of-range state would index the transition table out of bounds
// and panic, and a counter based beyond the restore position would break
// the record path's window arithmetic. Shorter or nil memory, register
// and counter images are accepted as zero-extended: the runner's own
// state is Reset before copying, so stale bits from its previous flow
// cannot survive into the restored one.
func (r *Runner) SetContext(state uint32, mem filter.Memory, regs filter.Registers, ctrs filter.Counters, pos int64) error {
	if state >= uint32(r.mfa.stats.DFAStates) || pos < 0 ||
		len(mem) > len(r.mem) || len(regs) > len(r.regs) || len(ctrs) > r.mfa.prog.CountersLen() {
		r.Reset()
		return fmt.Errorf("%w: state %d (of %d), pos %d, mem %d/%d words, regs %d/%d, ctrs %d/%d",
			ErrBadContext, state, r.mfa.stats.DFAStates, pos,
			len(mem), len(r.mem), len(regs), len(r.regs), len(ctrs), r.mfa.prog.CountersLen())
	}
	if err := r.mfa.prog.ValidateCounters(ctrs, pos); err != nil {
		r.Reset()
		return fmt.Errorf("%w: %v", ErrBadContext, err)
	}
	r.mem.Reset()
	copy(r.mem, mem)
	r.regs.Reset()
	copy(r.regs, regs)
	r.mfa.prog.RestoreCounters(r.ctrs, ctrs)
	r.dfa.SetState(state, pos)
	return nil
}

// Feed advances the flow over data. Every possible match from the DFA is
// passed through the filter; onMatch is invoked only for confirmed
// matches of original rules, in input order. It is the loop of
// dfa.Runner.Feed — record, then drain — with the filter as the drain:
// dfa.WalkQuarters walks up to dfa.BlockLen bytes without a branch on the
// states it reaches (four independent chains over a block of at least 64
// bytes, one class-map load, one table load and one store per byte, over
// pre-scaled row bases), and the accept programs of the visits its accept
// words name then run in order. The filter is off the walk's
// dependent-load chains, so match-dense text pays for its visits and not
// for a mispredicted branch at each; a callback runs up to
// dfa.BlockLen-1 = 255 bytes of walking after the byte it reports, with
// the same pos and the same Pos(). If onMatch (or an accept program)
// panics, the block's later visits are not delivered and the runner keeps
// the DFA state and position the call found.
//
// A visit whose program only forgets (a line end clearing guard bits and
// resetting counters) is skipped while the flow is quiet — holds none of
// the bits and no live counter any such program could touch — since it
// would change nothing (DESIGN.md §21). Whether it is quiet is checked at
// the call's first reset-only visit and at the first after a reset-only
// program ran; any other program makes it "not quiet" unchecked, so a flow
// whose every line records a witness never pays for the check. Every
// visit still counts towards the routing verdict.
func (r *Runner) Feed(data []byte, onMatch MatchFunc) {
	var rec dfa.Quarters
	r.feed(data, onMatch, &rec)
}

// feed is Feed walking into rec, a block record the caller owns and may
// reuse: WalkQuarters reads no row it did not write in the same call. A
// FlowBatcher keeps one, so the short calls it makes — a 96-byte segment of
// a lane no quad took — do not clear a kilobyte each.
func (r *Runner) feed(data []byte, onMatch MatchFunc, rec *dfa.Quarters) {
	m := r.mfa
	st, scaledAccept := r.dfa.State()*uint32(m.stride), m.acceptStart*uint32(m.stride)
	pos := r.dfa.Pos()
	quiet, unsure := false, true // unsure: read quiet afresh before using it; quiet implies !unsure
	for len(data) > 0 {
		st = dfa.WalkQuarters(m.trans, m.classOf, st, scaledAccept, data, rec)
		for j, accepts := range rec.Accepts {
			if accepts != 0 {
				rows := (*[64]uint32)(rec.Rows[j*64:])
				quiet, unsure = r.drain(accepts, rows, pos+int64(rec.Offset(j*64)), onMatch, quiet, unsure)
			}
		}
		n := rec.Len()
		data, pos = data[n:], pos+int64(n)
	}
	r.dfa.SetState(m.div.Quo(st), pos)
}

// drain is the accept path of both walks, Feed's block loop and lockstep's
// quads: it runs, in order, the accept programs of the visits one accept
// word names — bit i the state in rows[i], reached by the byte at base+i —
// on the flow's memory, registers and counters, and onMatch receives the
// rules they confirm. quiet and unsure carry Feed's quiet check (see Feed)
// from word to word and are returned for the next; a caller with no
// knowledge of the flow passes false, true.
func (r *Runner) drain(accepts uint64, rows *[64]uint32, base int64, onMatch MatchFunc, quiet, unsure bool) (bool, bool) {
	m := r.mfa
	scaledAccept := m.acceptStart * uint32(m.stride)
	r.visits += int64(bits.OnesCount64(accepts))
	for accepts != 0 {
		low := accepts // dies at the bit scan: see dfa.Runner.FeedCount
		accepts &= accepts - 1
		i := bits.TrailingZeros64(low) & 63 // the mask only tells the compiler i is in range
		q := m.div.Quo(rows[i] - scaledAccept)
		if m.resetOnly[q] {
			if quiet {
				continue
			}
			if unsure {
				if quiet = m.quiet.Holds(r.mem, r.ctrs); quiet {
					unsure = false
					continue
				}
			}
			unsure = true
		} else {
			quiet, unsure = false, false
		}
		m.fires[q].Run(r.mem, r.regs, r.ctrs, base+int64(i), onMatch)
	}
	return quiet, unsure
}

// FeedCount advances the flow and returns only the number of confirmed
// matches: Feed with a counting callback, for benchmarks and callers that
// need no match details. The callback is one closure per call.
func (r *Runner) FeedCount(data []byte) int64 {
	var count int64
	r.Feed(data, func(int32, int64) { count++ })
	return count
}

// MatchEvent records one confirmed match.
type MatchEvent struct {
	RuleID int32
	Pos    int64
}

// Run scans data as one fresh flow and returns all confirmed matches in
// order; a convenience for tests and one-shot scans.
func (m *MFA) Run(data []byte) []MatchEvent {
	var out []MatchEvent
	r := m.NewRunner()
	r.Feed(data, func(id int32, pos int64) {
		out = append(out, MatchEvent{RuleID: id, Pos: pos})
	})
	return out
}
