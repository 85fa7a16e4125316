package filter

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Helpers the pre-accept-program tests and the oracle below are written
// against: single-bit memory writes and counter ops addressed by counter
// number.

func (m Memory) setBit(i int16)   { m[i>>6] |= 1 << (i & 63) }
func (m Memory) clearBit(i int16) { m[i>>6] &^= 1 << (i & 63) }

func (p *Program) block(cs Counters, c int16) ctrBlock {
	off := int(p.ctrOff[c-1])
	return ctrBlock(cs[off : off+1+p.counters[c-1].spanWords()])
}

func (p *Program) ctrRecord(cs Counters, c int16, pos int64) { p.block(cs, c).record(pos) }
func (p *Program) ctrReset(cs Counters, c int16, pos int64)  { p.block(cs, c).reset(pos) }
func (p *Program) ctrTest(cs Counters, c int16, pos int64) bool {
	d := p.counters[c-1]
	return p.block(cs, c).test(d.MinGap, d.MaxGap, pos)
}

// refApplyAll is the oracle: the id-at-a-time ApplyAll as it stood before
// actions were compiled, transcribed literally.
func refApplyAll(p *Program, m Memory, regs Registers, cs Counters, id int32, pos int64) (int32, bool) {
	a := p.Action(id)
	if a.Test != NoBit && !m.Bit(a.Test) {
		return 0, false
	}
	if a.GapReg != NoReg {
		if regs == nil {
			return 0, false
		}
		recorded := regs[a.GapReg-1]
		if recorded == 0 || pos+1-recorded < int64(a.MinGap) {
			return 0, false
		}
	}
	if a.TestCtr != NoCtr {
		if cs == nil || !p.ctrTest(cs, a.TestCtr, pos) {
			return 0, false
		}
	}
	if a.SetPos != NoReg && regs != nil && regs[a.SetPos-1] == 0 {
		regs[a.SetPos-1] = pos + 1
	}
	if a.SetCtr != NoCtr && cs != nil {
		p.ctrRecord(cs, a.SetCtr, pos)
	}
	if a.ResetCtr != NoCtr && cs != nil {
		p.ctrReset(cs, a.ResetCtr, pos)
	}
	if a.Set != NoBit {
		m.setBit(a.Set)
	}
	if a.Clear != NoBit {
		m.clearBit(a.Clear)
	}
	if a.ClearGroup != 0 {
		for _, op := range p.clearGroups[a.ClearGroup-1] {
			m[op.Word] &^= op.Mask
		}
	}
	if a.Report != NoReport {
		return a.Report, true
	}
	return 0, false
}

// flowState is one flow's filter state; the three machines under test
// each own one.
type flowState struct {
	m    Memory
	regs Registers
	cs   Counters
}

func newFlowState(p *Program, nilRegs, nilCtrs bool) flowState {
	st := flowState{m: p.NewMemory()}
	if !nilRegs {
		st.regs = p.NewRegisters()
	}
	if !nilCtrs {
		st.cs = p.NewCounters()
	}
	return st
}

// checkComposed drives the composed programs of sets, the singleton
// programs behind ApplyAll and the oracle through the same (set, pos)
// sequence and requires identical confirmed ids and identical final
// memory, registers and counters.
func checkComposed(t *testing.T, name string, p *Program, sets [][]int32, visits []int, step func() int64, nilRegs, nilCtrs bool) {
	t.Helper()
	progs, _ := p.Compose(sets)
	ref, one, all := newFlowState(p, nilRegs, nilCtrs), newFlowState(p, nilRegs, nilCtrs), newFlowState(p, nilRegs, nilCtrs)
	var pos int64
	for vi, si := range visits {
		pos += step()
		var want, gotOne, gotAll []int32
		for _, id := range sets[si] {
			if r, ok := refApplyAll(p, ref.m, ref.regs, ref.cs, id, pos); ok {
				want = append(want, r)
			}
			if r, ok := p.ApplyAll(one.m, one.regs, one.cs, id, pos); ok {
				gotOne = append(gotOne, r)
			}
		}
		progs[si].Run(all.m, all.regs, all.cs, pos, func(r int32, at int64) {
			if at != pos {
				t.Fatalf("%s: emit at %d, want %d", name, at, pos)
			}
			gotAll = append(gotAll, r)
		})
		if !slices.Equal(gotOne, want) || !slices.Equal(gotAll, want) {
			t.Fatalf("%s: visit %d set %v pos %d: confirmed ref %v, ApplyAll %v, composed %v\n%s",
				name, vi, sets[si], pos, want, gotOne, gotAll, p)
		}
		for _, got := range []flowState{one, all} {
			if !slices.Equal(got.m, ref.m) || !slices.Equal(got.regs, ref.regs) || !slices.Equal(got.cs, ref.cs) {
				t.Fatalf("%s: visit %d set %v pos %d: state diverged\nref %v %v %v\ngot %v %v %v\n%s",
					name, vi, sets[si], pos, ref.m, ref.regs, ref.cs, got.m, got.regs, got.cs, p)
			}
		}
	}
}

// TestComposeOrderSensitive pins decision sets whose result depends on
// the ids running in order — shapes the splitter never emits, so only
// this test stands between the merge rule and a wrong reordering.
func TestComposeOrderSensitive(t *testing.T) {
	p := NewProgramRegs(32, 130, 2)
	g := p.AddClearGroup([]int16{3, 70, 129})
	c := p.AddCounter(2, 5)
	acts := []Action{
		1:  {Test: NoBit, Set: 3, Clear: NoBit},                                        // Set b
		2:  {Test: 3, Set: NoBit, Clear: NoBit, Report: 102},                           // Test b
		3:  {Test: NoBit, Set: NoBit, Clear: 3},                                        // Clear b
		4:  {Test: NoBit, Set: NoBit, Clear: NoBit, ClearGroup: g},                     // ClearGroup ∋ b
		5:  {Test: NoBit, Set: NoBit, Clear: NoBit, SetCtr: c},                         // Inc c
		6:  {Test: NoBit, Set: NoBit, Clear: NoBit, ResetCtr: c},                       // Reset c
		7:  {Test: NoBit, Set: NoBit, Clear: NoBit, TestCtr: c, Report: 107},           // Ctr(c) in window
		8:  {Test: NoBit, Set: NoBit, Clear: NoBit, SetPos: 1},                         // Record r
		9:  {Test: NoBit, Set: NoBit, Clear: NoBit, GapReg: 1, MinGap: 1, Report: 109}, // Gap(r)
		10: {Test: NoBit, Set: 70, Clear: NoBit},                                       // another word
		11: {Test: NoBit, Set: 5, Clear: 3, ClearGroup: g, Report: 111},                // set, clear and group at once
		12: {Test: 70, Set: 3, Clear: NoBit, SetCtr: c, SetPos: 2},                     // guarded effects
		13: {Test: NoBit, Set: NoBit, Clear: NoBit, Report: 113},                       // bare reporter
	}
	for id, a := range acts {
		if id > 0 {
			p.SetAction(int32(id), a)
		}
	}
	sets := [][]int32{
		{1, 2}, {2, 1}, // Set b then Test b, and the reverse
		{3, 2}, {2, 3}, {1, 3, 2}, {1, 2, 3}, {3, 1, 2}, // Clear b around Test b
		{4, 2}, {2, 4}, {1, 4, 2}, {1, 10, 4, 2, 1}, // ClearGroup around Test b
		{5, 6, 7}, {5, 7, 6}, {6, 5, 7}, {6, 7, 5}, {7, 5, 6}, {7, 6, 5}, // counter ops at one pos
		{8, 9}, {9, 8}, // Record r then Gap(r)
		{1, 3, 1, 3, 1}, {3, 1, 3}, {1, 10, 3, 13, 4, 1, 6, 5, 1}, // set/clear runs across other ops
		{13, 1, 11, 13, 2, 12, 3, 13}, {10, 12, 2, 7}, {11, 2}, {1, 11, 2},
		{}, {20}, // empty set; an id without an action
	}
	for _, nils := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 200; trial++ {
			visits := make([]int, 12)
			for i := range visits {
				visits[i] = rng.Intn(len(sets))
			}
			// Steps of 0 revisit a position; small steps keep witnesses
			// inside the [2,5] window.
			step := func() int64 { return int64(rng.Intn(4)) }
			checkComposed(t, fmt.Sprintf("nil regs/ctrs %v trial %d", nils, trial), p, sets, visits, step, nils[0], nils[1])
		}
	}
}

// TestComposeRandom is the equivalence property: random programs over
// bits, clear groups, position registers and counters, random decision
// sets, random (set, pos) sequences.
func TestComposeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	trials := 400
	if testing.Short() {
		trials = 80
	}
	for trial := 0; trial < trials; trial++ {
		memBits := 1 + rng.Intn(200)
		numRegs := rng.Intn(4)
		numIDs := 2 + rng.Intn(24)
		p := NewProgramRegs(numIDs, memBits, numRegs)
		bit := func() int16 {
			if rng.Intn(3) == 0 {
				return NoBit
			}
			return int16(rng.Intn(memBits))
		}
		oneIn := func(n, limit int) int {
			if limit == 0 || rng.Intn(n) != 0 {
				return 0
			}
			return 1 + rng.Intn(limit)
		}
		for g := rng.Intn(4); g > 0; g-- {
			bits := make([]int16, 1+rng.Intn(6))
			for i := range bits {
				bits[i] = int16(rng.Intn(memBits))
			}
			p.AddClearGroup(bits)
		}
		for c := rng.Intn(4); c > 0; c-- {
			lo := int32(1 + rng.Intn(6))
			p.AddCounter(lo, lo+int32(rng.Intn(150)))
		}
		for id := 1; id < numIDs; id++ {
			if rng.Intn(8) == 0 {
				continue // stays the drop action
			}
			a := Action{Test: bit(), Set: bit(), Clear: bit()}
			if rng.Intn(2) == 0 {
				a.Test = NoBit // unconditional actions are what merging feeds on
			}
			a.Report = int32(oneIn(3, 1000))
			a.ClearGroup = int32(oneIn(3, p.NumClearGroups()))
			a.SetPos = int16(oneIn(4, numRegs))
			if a.GapReg = int16(oneIn(4, numRegs)); a.GapReg != NoReg {
				a.MinGap = int32(1 + rng.Intn(8))
			}
			a.SetCtr = int16(oneIn(3, p.NumCounters()))
			a.TestCtr = int16(oneIn(4, p.NumCounters()))
			a.ResetCtr = int16(oneIn(3, p.NumCounters()))
			p.SetAction(int32(id), a)
		}
		sets := make([][]int32, 1+rng.Intn(8))
		for i := range sets {
			sets[i] = make([]int32, rng.Intn(12))
			for j := range sets[i] {
				sets[i][j] = int32(1 + rng.Intn(numIDs-1))
			}
		}
		sets = append(sets, sets[0]) // a repeated set shares its program
		visits := make([]int, 40)
		for i := range visits {
			visits[i] = rng.Intn(len(sets))
		}
		// Mostly short steps, sometimes a jump past every counter window
		// (forcing a bitmap rebase).
		step := func() int64 {
			if rng.Intn(10) == 0 {
				return int64(rng.Intn(2000))
			}
			return int64(rng.Intn(5))
		}
		checkComposed(t, fmt.Sprintf("trial %d", trial), p, sets, visits, step, rng.Intn(6) == 0, rng.Intn(6) == 0)
	}
}

// TestComposeShapes checks what Compose reports and that merging happens:
// the shape the splitter emits for a line-end state — several counter
// resets and clear groups, all unconditional — costs one op per counter
// and one per memory word, not one per id.
func TestComposeShapes(t *testing.T) {
	p := NewProgram(16, 100)
	g1 := p.AddClearGroup([]int16{1, 2, 65})
	g2 := p.AddClearGroup([]int16{3, 66, 67})
	for id := int32(1); id <= 4; id++ {
		c := p.AddCounter(2, 40)
		p.SetAction(id, Action{Test: NoBit, Set: NoBit, Clear: NoBit, ResetCtr: c})
	}
	p.SetAction(5, Action{Test: NoBit, Set: NoBit, Clear: NoBit, ClearGroup: g1})
	p.SetAction(6, Action{Test: NoBit, Set: NoBit, Clear: NoBit, ClearGroup: g2})
	p.SetAction(7, Action{Test: 1, Set: NoBit, Clear: NoBit, Report: 9})
	sets := [][]int32{{1, 2, 3, 4, 5, 6}, {7}, {1, 2, 3, 4, 5, 6}, {8, 9}}
	progs, st := p.Compose(sets)
	if len(progs) != len(sets) {
		t.Fatalf("%d programs for %d sets", len(progs), len(sets))
	}
	if len(progs[0]) != 6 { // 4 resets + 2 memory words
		t.Errorf("line-end set compiled to %d ops, want 6", len(progs[0]))
	}
	if len(progs[1]) != 2 || len(progs[3]) != 0 {
		t.Errorf("ops: guarded reporter %d (want 2), drop-only set %d (want 0)", len(progs[1]), len(progs[3]))
	}
	if &progs[0][0] != &progs[2][0] {
		t.Error("equal decision sets do not share one program")
	}
	if st.Programs != 3 || st.Widest.IDs != 6 || st.Widest.Ops != 6 {
		t.Errorf("stats %+v, want 3 programs, widest 6 ids -> 6 ops", st)
	}
	if want := 8*32 + len(sets)*24; st.Bytes != want {
		t.Errorf("Bytes = %d, want %d", st.Bytes, want)
	}
}
