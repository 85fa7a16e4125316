// Package xfa implements an XFA-style baseline [Smith et al., SIGCOMM
// 2008]: a deterministic automaton whose states carry small update
// programs over an auxiliary memory, executed whenever an annotated state
// is entered, with matches raised by instructions whose memory conditions
// hold.
//
// Substitution notes (see DESIGN.md): the original XFA construction is a
// search over non-deterministic update functions that the MFA paper
// itself could not run ("we present estimated throughput results"). This
// package instead derives the per-state programs from the same
// decomposition the MFA uses, preserving XFA's processing model — an
// interpreted instruction list attached to states, dispatched per visit —
// which is what distinguishes its online cost from the MFA's single
// merged bytecode per match id.
package xfa

import (
	"fmt"
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

// Opcode selects an instruction's behaviour.
type Opcode uint8

// The instruction set: elementary memory updates and conditional reports,
// the "few CPU instructions" granularity of the XFA model.
const (
	OpSetBit Opcode = iota + 1
	OpClearBit
	OpTestSetBit // if mem[A] then set mem[B]
	OpTestReport // if mem[A] then report Rule
	OpReport     // unconditionally report Rule
	// OpClearGroup clears the word-masked bit group indexed by Rule
	// (1-based), the shared-gap-fragment merge of the splitter.
	OpClearGroup
)

// Instr is one program instruction (8 bytes in the memory image).
type Instr struct {
	Op   Opcode
	_    uint8
	A, B int16
	Rule int32
}

// Options configures construction.
type Options struct {
	// MaxStates caps subset construction; 0 means dfa.DefaultMaxStates.
	MaxStates int
}

// XFA is the compiled automaton.
type XFA struct {
	trans       []uint32 // NumStates×256 plain state numbers
	start       uint32
	acceptStart uint32
	// starts[i] .. starts[i+1] index instrs for accepting state
	// acceptStart+i.
	starts []uint32
	instrs []Instr
	groups [][]filter.ClearOp // 1-based via instruction Rule field
	prog   *filter.Program
	stats  BuildStats
}

// BuildStats records construction results.
type BuildStats struct {
	NumStates int
	NumInstrs int
	MemBits   int
	BuildTime time.Duration
}

// Compile builds the XFA for a rule set, decomposed under the paper's
// conditions: the baseline's memory is bits, so an overlapping dot-star
// stays whole rather than splitting on a position register.
func Compile(rules []Rule, opts Options) (*XFA, error) {
	start := time.Now()

	srules := make([]splitter.Rule, len(rules))
	for i, r := range rules {
		srules[i] = splitter.Rule{Pattern: r.Pattern, RuleID: r.ID}
	}
	res, err := splitter.Split(srules, splitter.Options{Construction: splitter.Paper})
	if err != nil {
		return nil, fmt.Errorf("xfa: %w", err)
	}
	nfaRules := make([]nfa.Rule, len(res.Fragments))
	for i, f := range res.Fragments {
		nfaRules[i] = nfa.Rule{Pattern: f.Pattern, MatchID: int(f.InternalID)}
	}
	n, err := nfa.Build(nfaRules)
	if err != nil {
		return nil, fmt.Errorf("xfa: %w", err)
	}
	// The XFA baseline keeps the paper's flat one-load-per-byte table —
	// it is the layout the original XFA work assumes — as its own copy
	// (TransitionTable); the DFA is not retained.
	d, err := dfa.FromNFA(n, dfa.Options{MaxStates: opts.MaxStates})
	if err != nil {
		return nil, fmt.Errorf("xfa: %w", err)
	}

	prog := res.Program()
	x := &XFA{
		trans:       d.TransitionTable(),
		start:       d.Start(),
		acceptStart: d.AcceptStart(),
		prog:        prog,
	}
	x.groups = make([][]filter.ClearOp, prog.NumClearGroups())
	for g := range x.groups {
		x.groups[g] = prog.ClearGroupOps(int32(g + 1))
	}
	numAccept := d.NumStates() - int(d.AcceptStart())
	x.starts = make([]uint32, numAccept+1)
	for i := 0; i < numAccept; i++ {
		s := d.AcceptStart() + uint32(i)
		for _, id := range d.Matches(s) {
			instrs, err := compileAction(id, prog.Action(id))
			if err != nil {
				return nil, err
			}
			x.instrs = append(x.instrs, instrs...)
		}
		x.starts[i+1] = uint32(len(x.instrs))
	}
	x.stats = BuildStats{
		NumStates: d.NumStates(),
		NumInstrs: len(x.instrs),
		MemBits:   res.MemBits,
		BuildTime: time.Since(start),
	}
	return x, nil
}

// compileAction lowers one filter action to instructions. The splitter
// only emits three action shapes (set-with-optional-test, unconditional
// clear, test-to-report / plain report), so each lowers to one
// instruction; the general cases are handled anyway for robustness. An
// action with a register or counter operand — which the instruction set,
// working on memory bits, clear groups and reports, cannot express — is a
// filter.UnsupportedActionError.
func compileAction(id int32, a filter.Action) ([]Instr, error) {
	bitsOnly := filter.Action{Test: a.Test, Set: a.Set, Clear: a.Clear, Report: a.Report, ClearGroup: a.ClearGroup}
	if a != bitsOnly {
		return nil, &filter.UnsupportedActionError{Compiler: "xfa", ID: id, Action: a}
	}
	var out []Instr
	if a.Set != filter.NoBit {
		if a.Test != filter.NoBit {
			out = append(out, Instr{Op: OpTestSetBit, A: a.Test, B: a.Set})
		} else {
			out = append(out, Instr{Op: OpSetBit, A: a.Set})
		}
	}
	if a.Clear != filter.NoBit {
		// The splitter's clear actions are unconditional; a conditional
		// clear would need a dedicated opcode, which no decomposition
		// currently produces.
		out = append(out, Instr{Op: OpClearBit, A: a.Clear})
	}
	if a.ClearGroup != 0 {
		out = append(out, Instr{Op: OpClearGroup, Rule: a.ClearGroup})
	}
	if a.Report != filter.NoReport {
		if a.Test != filter.NoBit {
			out = append(out, Instr{Op: OpTestReport, A: a.Test, Rule: a.Report})
		} else {
			out = append(out, Instr{Op: OpReport, Rule: a.Report})
		}
	}
	return out, nil
}

// Stats returns construction statistics.
func (x *XFA) Stats() BuildStats { return x.stats }

// NumStates returns the number of automaton states.
func (x *XFA) NumStates() int { return len(x.trans) / 256 }

// MemoryImageBytes returns the static image: the transition table, the
// per-state program index, and the instruction array.
func (x *XFA) MemoryImageBytes() int {
	return len(x.trans)*4 + len(x.starts)*4 + len(x.instrs)*8
}

// MatchFunc receives a confirmed match.
type MatchFunc = func(ruleID int32, pos int64)

// Runner is one flow's context: automaton state plus auxiliary memory.
type Runner struct {
	x   *XFA
	st  uint32
	mem filter.Memory
	pos int64
}

// NewRunner returns a runner at the start of a fresh flow.
func (x *XFA) NewRunner() *Runner {
	return &Runner{x: x, st: x.start, mem: x.prog.NewMemory()}
}

// Reset rewinds the runner for a new flow.
func (r *Runner) Reset() {
	r.st = r.x.start
	r.mem.Reset()
	r.pos = 0
}

// Pos returns the number of bytes consumed.
func (r *Runner) Pos() int64 { return r.pos }

// Feed advances the flow, interpreting the program of every annotated
// state it enters.
func (r *Runner) Feed(data []byte, onMatch MatchFunc) {
	x := r.x
	trans := x.trans
	acceptStart := x.acceptStart
	mem := r.mem
	st := r.st
	pos := r.pos
	for i := 0; i < len(data); i++ {
		st = trans[int(st)<<8|int(data[i])]
		if st >= acceptStart {
			idx := st - acceptStart
			for _, ins := range x.instrs[x.starts[idx]:x.starts[idx+1]] {
				switch ins.Op {
				case OpSetBit:
					mem[ins.A>>6] |= 1 << (ins.A & 63)
				case OpClearBit:
					mem[ins.A>>6] &^= 1 << (ins.A & 63)
				case OpTestSetBit:
					if mem.Bit(ins.A) {
						mem[ins.B>>6] |= 1 << (ins.B & 63)
					}
				case OpClearGroup:
					for _, op := range x.groups[ins.Rule-1] {
						mem[op.Word] &^= op.Mask
					}
				case OpTestReport:
					if mem.Bit(ins.A) && onMatch != nil {
						onMatch(ins.Rule, pos)
					}
				case OpReport:
					if onMatch != nil {
						onMatch(ins.Rule, pos)
					}
				}
			}
		}
		pos++
	}
	r.st = st
	r.pos = pos
}

// FeedCount advances the flow and returns the number of confirmed
// matches.
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

// Run scans data as one fresh flow.
func (x *XFA) Run(data []byte) []MatchEvent {
	var out []MatchEvent
	r := x.NewRunner()
	r.Feed(data, func(id int32, pos int64) {
		out = append(out, MatchEvent{RuleID: id, Pos: pos})
	})
	return out
}
