// Package filter implements the stateful match-filtering component of the
// MFA 9-tuple: the w-bit memory M = 2^w and the filtering transition
// function f : M × Di → M × {Confirm, Drop}.
//
// Each internal match id produced by the DFA triggers one Action, a
// 4-integer bytecode exactly as described in §IV-C of the paper: a memory
// bit that must be set for the action to take effect (test), a bit to set,
// a bit to clear, and a match id to report. Set and clear are applied and
// the report emitted only when the test passes; a failed test drops the
// match with no memory change.
//
// Concurrency: a Program is mutated only during construction (SetAction,
// AddClearGroup); once handed to an engine it is treated as immutable and
// is safe for concurrent use by any number of flows. All per-flow mutable
// state lives in Memory, Registers and Counters, which belong to exactly
// one flow and are not safe for concurrent use.
package filter

import (
	"fmt"
	"strings"
)

// NoBit marks an unused test/set/clear slot in an Action.
const NoBit = -1

// NoReg marks an unused position-register slot in an Action. Unlike the
// bit indices, registers are numbered from 1 so that the zero value of
// the new fields means "unused" and pre-extension Action literals remain
// valid.
const NoReg = 0

// NoReport marks an Action that never confirms a match. Internal match
// ids introduced by decomposition (the paper's 1a, 1b, ...) use it: they
// exist only to update memory and must always be filtered.
const NoReport = 0

// Action is the per-match-id filter bytecode.
type Action struct {
	// Test is the memory bit that must be 1 for this action to take
	// effect, or NoBit for an unconditional action.
	Test int16
	// Set is the memory bit to set when the action takes effect, or NoBit.
	Set int16
	// Clear is the memory bit to clear when the action takes effect, or
	// NoBit. The splitter never emits an action that both sets and clears;
	// the engine applies set before clear if one ever does.
	Clear int16
	// Report is the original rule id to confirm when the action takes
	// effect, or NoReport.
	Report int32

	// The remaining fields implement the counting-condition extension the
	// paper's §VI leaves as future work ("tracking the offsets of
	// previous matches"). They extend f with position registers: per-flow
	// int64 slots recording where a fragment first matched.

	// SetPos is the 1-based register that records the current match
	// position — only on its first (earliest) qualifying match — or
	// NoReg. The earliest occurrence is the optimal witness for a
	// minimum-gap constraint, so later matches never overwrite it.
	SetPos int16
	// GapReg is the 1-based register whose recorded position must precede
	// the current one by at least MinGap bytes for this action to take
	// effect, or NoReg. An unset register fails the condition.
	GapReg int16
	// MinGap is the required distance (current position minus recorded
	// position) when GapReg is in use. For a gap rule A.{n,}B with a
	// fixed B-length L, MinGap = n + L.
	MinGap int32

	// ClearGroup is the 1-based index of a word-mask clear group to
	// apply, or 0 for none. Groups implement the §IV-C action merging at
	// set scale: rules sharing an identical almost-dot-star gap class
	// share one [X] fragment whose single action clears every member
	// rule's guard bit with a handful of mask operations, instead of one
	// match event per rule per gap byte.
	ClearGroup int32

	// The counter-register extension (DESIGN.md §19) compiles bounded
	// gaps A X{n,m} B without state expansion, and — on an open-window
	// counter (OpenGap) — the almost-dot-stars A [^X]* B whose A and B
	// overlap. Counters are 1-based like position registers; NoCtr (0)
	// means unused.

	// SetCtr records the current match position as a witness in the
	// counter, or NoCtr.
	SetCtr int16
	// TestCtr requires the counter to hold a witness within its
	// [MinGap, MaxGap] window of the current position for this action to
	// take effect, or NoCtr. An empty counter fails the condition. An open
	// counter keeps only its first witness since the last reset, which is
	// the one that passes whenever any would.
	TestCtr int16
	// ResetCtr kills every witness recorded strictly before the current
	// position, or NoCtr. Emitted on the forbidden-class fragment of a
	// classed gap A [^X]{n,m} B or A [^X]* B: an X byte invalidates every
	// witness whose gap would contain it.
	ResetCtr int16
}

// DropAction is the action that unconditionally drops a match with no
// memory effect. Action-table slots without an installed action hold it.
var DropAction = Action{Test: NoBit, Set: NoBit, Clear: NoBit, Report: NoReport}

// IsDrop reports whether the action is the no-effect drop action.
func (a Action) IsDrop() bool {
	return a == DropAction
}

// String renders the action in the paper's pseudocode style, e.g.
// "Test 0 to Set 1" or "Test 2 to Match".
func (a Action) String() string {
	var parts []string
	if a.Set != NoBit {
		parts = append(parts, fmt.Sprintf("Set %d", a.Set))
	}
	if a.Clear != NoBit {
		parts = append(parts, fmt.Sprintf("Clear %d", a.Clear))
	}
	if a.Report != NoReport {
		parts = append(parts, "Match")
	}
	if a.ClearGroup != 0 {
		parts = append(parts, fmt.Sprintf("ClearGroup %d", a.ClearGroup))
	}
	if a.SetPos != NoReg {
		parts = append(parts, fmt.Sprintf("Record %d", a.SetPos))
	}
	if a.SetCtr != NoCtr {
		parts = append(parts, fmt.Sprintf("Inc %d", a.SetCtr))
	}
	if a.ResetCtr != NoCtr {
		parts = append(parts, fmt.Sprintf("Reset %d", a.ResetCtr))
	}
	body := strings.Join(parts, " and ")
	if body == "" {
		body = "Drop"
	}
	var conds []string
	if a.GapReg != NoReg {
		conds = append(conds, fmt.Sprintf("Gap(%d) >= %d", a.GapReg, a.MinGap))
	}
	if a.TestCtr != NoCtr {
		conds = append(conds, fmt.Sprintf("Ctr(%d) in window", a.TestCtr))
	}
	if len(conds) > 0 {
		cond := strings.Join(conds, " and ")
		if body == "Drop" {
			return cond
		}
		body = fmt.Sprintf("%s to %s", cond, body)
		if a.Test == NoBit {
			return body
		}
		return fmt.Sprintf("Test %d and %s", a.Test, body)
	}
	if a.Test != NoBit {
		if len(parts) > 0 {
			return fmt.Sprintf("Test %d to %s", a.Test, body)
		}
		return fmt.Sprintf("Test %d", a.Test)
	}
	return body
}

// UnsupportedActionError reports an action carrying an operand the
// Compiler's execution model cannot express. The baseline compilers (hfa,
// xfa) lower actions to bit-only forms and return it rather than drop a
// register or counter operand.
type UnsupportedActionError struct {
	Compiler string
	ID       int32
	Action   Action
}

func (e *UnsupportedActionError) Error() string {
	return fmt.Sprintf("%s: action %d (%s) has an operand the model cannot express", e.Compiler, e.ID, e.Action)
}

// ClearOp clears the masked bits of one memory word.
type ClearOp struct {
	Word int16
	Mask uint64
}

// Program is the compiled filter: the action table indexed by internal
// match id (Di), the memory width w, and the number of position
// registers the counting extension uses. Internal id 0 is reserved and
// never used, so the table's entry 0 stays the drop action.
//
// A Program is immutable after construction (the SetAction/AddClearGroup
// phase) and safe for concurrent use; Apply and ApplyAt mutate only the
// Memory and Registers passed in, never the Program itself.
type Program struct {
	actions     []Action
	memBits     int
	numRegs     int
	clearGroups [][]ClearOp // 1-based via ClearGroup-1

	// Counter registers (counter.go): static descriptors plus the
	// precomputed flattened layout of per-flow counter blocks.
	counters []Counter
	ctrOff   []int32 // block offset of each counter in a Counters slice
	ctrTotal int     // total words of per-flow counter state

	// The action table compiled (accept.go): singles[id] bounds the
	// one-id accept program of actions[id] in compiled.ops. Operands are
	// resolved when an action is installed, which is why the clear groups
	// and counters it names must already be registered.
	compiled composer
	singles  [][2]int32
}

// NewProgram returns a program with capacity for internal ids
// 1..numIDs-1, a w-bit memory and no position registers.
func NewProgram(numIDs, memBits int) *Program {
	return NewProgramRegs(numIDs, memBits, 0)
}

// NewProgramRegs is NewProgram with numRegs position registers for
// counting-gap actions.
func NewProgramRegs(numIDs, memBits, numRegs int) *Program {
	actions := make([]Action, numIDs)
	for i := range actions {
		actions[i] = DropAction
	}
	p := &Program{
		actions: actions,
		memBits: memBits,
		numRegs: numRegs,
		singles: make([][2]int32, numIDs),
	}
	p.compiled = p.newComposer()
	return p
}

// CheckAction validates an action against the program's dimensions and
// returns a descriptive error naming the offending field. It is the
// shared validator behind SetAction (which panics, for construction-time
// bugs) and decoding (which returns errors, for untrusted input).
func (p *Program) CheckAction(id int32, a Action) error {
	if id <= 0 || int(id) >= len(p.actions) {
		return fmt.Errorf("filter: action id %d out of range [1,%d)", id, len(p.actions))
	}
	for _, bit := range []int16{a.Test, a.Set, a.Clear} {
		if bit != NoBit && (bit < 0 || int(bit) >= p.memBits) {
			return fmt.Errorf("filter: action %d: memory bit %d out of range [0,%d)", id, bit, p.memBits)
		}
	}
	for _, reg := range []int16{a.SetPos, a.GapReg} {
		if reg != NoReg && (reg < 1 || int(reg) > p.numRegs) {
			return fmt.Errorf("filter: action %d: register %d out of range [1,%d]", id, reg, p.numRegs)
		}
	}
	if a.GapReg != NoReg && a.MinGap < 1 {
		return fmt.Errorf("filter: action %d: gap action needs MinGap >= 1, got %d", id, a.MinGap)
	}
	for _, ctr := range []int16{a.SetCtr, a.TestCtr, a.ResetCtr} {
		if ctr != NoCtr && (ctr < 1 || int(ctr) > len(p.counters)) {
			return fmt.Errorf("filter: action %d: counter %d out of range [1,%d]", id, ctr, len(p.counters))
		}
	}
	if a.ClearGroup < 0 || int(a.ClearGroup) > len(p.clearGroups) {
		return fmt.Errorf("filter: action %d: clear group %d out of range [0,%d]", id, a.ClearGroup, len(p.clearGroups))
	}
	return nil
}

// SetAction installs the action for an internal match id. It panics on an
// out-of-range id or memory bit: the splitter allocates both, so a bad
// value is a construction bug, not an input error. Untrusted inputs go
// through CheckAction instead.
func (p *Program) SetAction(id int32, a Action) {
	if err := p.CheckAction(id, a); err != nil {
		panic(err.Error())
	}
	p.install(id, a)
}

// install stores a checked action and compiles its singleton program.
func (p *Program) install(id int32, a Action) {
	p.actions[id] = a
	start := p.compiled.begin()
	p.compiled.action(a)
	p.singles[id] = [2]int32{int32(start), int32(len(p.compiled.ops))}
}

// AddClearGroup registers a word-mask clear group, returning its 1-based
// index for use in Action.ClearGroup. Bits must be valid memory bits.
func (p *Program) AddClearGroup(bits []int16) int32 {
	words := (p.memBits + 63) / 64
	masks := make([]uint64, words)
	for _, bit := range bits {
		if bit < 0 || int(bit) >= p.memBits {
			panic(fmt.Sprintf("filter: clear-group bit %d out of range [0,%d)", bit, p.memBits))
		}
		masks[bit>>6] |= 1 << (bit & 63)
	}
	ops := make([]ClearOp, 0, 2)
	for w, m := range masks {
		if m != 0 {
			ops = append(ops, ClearOp{Word: int16(w), Mask: m})
		}
	}
	p.clearGroups = append(p.clearGroups, ops)
	return int32(len(p.clearGroups))
}

// Action returns the action for an internal match id, or DropAction for
// unknown ids.
func (p *Program) Action(id int32) Action {
	if id <= 0 || int(id) >= len(p.actions) {
		return DropAction
	}
	return p.actions[id]
}

// NumIDs returns the size of the action table, including the reserved
// entry 0.
func (p *Program) NumIDs() int { return len(p.actions) }

// MemBits returns w, the number of memory bits a flow context needs.
func (p *Program) MemBits() int { return p.memBits }

// NumRegs returns the number of position registers a flow context needs.
func (p *Program) NumRegs() int { return p.numRegs }

// NumActiveActions returns how many non-drop actions are installed.
func (p *Program) NumActiveActions() int {
	n := 0
	for _, a := range p.actions {
		if !a.IsDrop() {
			n++
		}
	}
	return n
}

// MemoryImageBytes returns the filter's share of the Figure 2 memory
// image: the action table in the packed record the paper's bytecode
// discussion implies — 16 bytes per entry (five int16 indices, an int32
// report id and an int32 gap, with alignment), or 24 bytes once the
// program has counter registers (three more int16 slots, with alignment)
// plus 8 bytes per counter descriptor. It is an accounting model of that
// record, not a size of anything this package stores or writes: the
// MFFLT1/MFFLT2 wire records are 24 and 28 bytes (they carry the
// clear-group index too), the Action struct is 32, and the compiled ops
// derived from the table are reported apart (ComposeStats.Bytes).
func (p *Program) MemoryImageBytes() int {
	if len(p.counters) == 0 {
		return len(p.actions) * 16
	}
	return len(p.actions)*24 + len(p.counters)*8
}

// String renders the whole program in the style of the paper's Table III.
func (p *Program) String() string {
	var sb strings.Builder
	for id, a := range p.actions {
		if a.IsDrop() {
			continue
		}
		fmt.Fprintf(&sb, "%d: %s\n", id, a.String())
	}
	return sb.String()
}

// Memory is one flow's w-bit filter memory, initialized to all zeros by
// convention (§III-A). It is the (m) half of the paper's (q, m) pair.
// Like any per-flow context it is owned by one flow at a time and not
// safe for concurrent use.
type Memory []uint64

// NewMemory allocates a zeroed memory for the program's width.
func (p *Program) NewMemory() Memory {
	return make(Memory, (p.memBits+63)/64)
}

// Reset zeroes the memory for reuse on a new flow.
func (m Memory) Reset() {
	for i := range m {
		m[i] = 0
	}
}

// Bit reports the value of bit i.
func (m Memory) Bit(i int16) bool {
	return m[i>>6]&(1<<(i&63)) != 0
}

// Clone returns an independent copy, used when flow contexts are saved.
func (m Memory) Clone() Memory {
	out := make(Memory, len(m))
	copy(out, m)
	return out
}

// NumClearGroups returns the number of registered clear groups.
func (p *Program) NumClearGroups() int { return len(p.clearGroups) }

// ClearGroupOps returns the mask operations of the 1-based clear group g.
// The returned slice is shared and must not be modified.
func (p *Program) ClearGroupOps(g int32) []ClearOp {
	return p.clearGroups[g-1]
}

// Registers are one flow's position registers for counting-gap actions.
// Slot values store position+1 so the zero value means "unset"; a fresh
// flow starts all-unset.
type Registers []int64

// NewRegisters allocates a zeroed register file for the program.
func (p *Program) NewRegisters() Registers {
	if p.numRegs == 0 {
		return nil
	}
	return make(Registers, p.numRegs)
}

// Reset clears all registers for reuse on a new flow.
func (r Registers) Reset() {
	for i := range r {
		r[i] = 0
	}
}

// Clone returns an independent copy, used when flow contexts are saved.
func (r Registers) Clone() Registers {
	if r == nil {
		return nil
	}
	out := make(Registers, len(r))
	copy(out, r)
	return out
}

// Apply runs the action for internal match id against memory m,
// returning the confirmed original rule id and true, or 0 and false when
// the match is dropped. This is f : M × Di → M × {Confirm, Drop} for
// programs without counting registers; programs that use them must go
// through ApplyAt (Apply treats every gap condition as failed).
func (p *Program) Apply(m Memory, id int32) (reportID int32, confirmed bool) {
	return p.ApplyAt(m, nil, id, 0)
}

// ApplyAt is Apply extended with the counting-condition state: the flow's
// position registers and the current match position. Programs with
// counter registers must go through ApplyAll (ApplyAt treats every
// counter test as failed).
func (p *Program) ApplyAt(m Memory, regs Registers, id int32, pos int64) (reportID int32, confirmed bool) {
	return p.ApplyAll(m, regs, nil, id, pos)
}

// ApplyAll is the full filtering transition function: ApplyAt extended
// with the flow's counter state. A nil cs fails every counter test and
// drops counter updates, mirroring how a nil regs fails gap conditions.
// It runs the id's singleton accept program, so a decision set applied
// id by id and its composed program (Compose) share one interpreter.
func (p *Program) ApplyAll(m Memory, regs Registers, cs Counters, id int32, pos int64) (reportID int32, confirmed bool) {
	if uint32(id) >= uint32(len(p.singles)) {
		return 0, false
	}
	s := p.singles[id]
	AcceptProgram(p.compiled.ops[s[0]:s[1]]).Run(m, regs, cs, pos, func(ruleID int32, _ int64) {
		reportID, confirmed = ruleID, true
	})
	return reportID, confirmed
}
