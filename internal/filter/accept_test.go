package filter

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// Helpers the pre-accept-program tests and the oracle below are written
// against: single-bit memory writes and counter ops addressed by counter
// number.

func (m Memory) setBit(i int16)   { m[i>>6] |= 1 << (i & 63) }
func (m Memory) clearBit(i int16) { m[i>>6] &^= 1 << (i & 63) }

func (p *Program) block(cs Counters, c int16) ctrBlock {
	off := int(p.ctrOff[c-1])
	return ctrBlock(cs[off : off+p.counters[c-1].words()])
}

// The three counter ops by counter number. An open counter's are written out
// from its definition — the word is the earliest witness since the last
// reset, plus one — rather than through the interpreter under test.
func (p *Program) ctrRecord(cs Counters, c int16, pos int64) {
	if !p.counters[c-1].Open() {
		p.block(cs, c).record(pos)
	} else if w := &p.block(cs, c)[0]; *w == 0 {
		*w = uint64(pos + 1)
	}
}

func (p *Program) ctrReset(cs Counters, c int16, pos int64) {
	if !p.counters[c-1].Open() {
		p.block(cs, c).reset(pos)
	} else if w := &p.block(cs, c)[0]; *w != 0 && int64(*w)-1 < pos {
		*w = 0
	}
}

func (p *Program) ctrTest(cs Counters, c int16, pos int64) bool {
	d := p.counters[c-1]
	if d.Open() {
		w := int64(p.block(cs, c)[0])
		return w != 0 && pos-(w-1) >= int64(d.MinGap)
	}
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

// liveBit reports the live-summary bit of counter c in cs.
func liveBit(cs Counters, c int16) bool {
	return *cs.liveWord(int32(c-1) >> 6)&(1<<((c-1)&63)) != 0
}

// holdsWitness reports whether counter c's bitmap, or its one word when it
// is open, is non-empty in cs.
func (p *Program) holdsWitness(cs Counters, c int16) bool {
	return !empty(p.counters[c-1].witnessWords(p.block(cs, c)))
}

// checkLive requires the live summary's invariant of cs — a block that
// holds a witness has its bit set. A reset skipped on a clear bit is sound
// only under it: a stale witness is a false match waiting to be reported.
func checkLive(t *testing.T, name string, p *Program, cs Counters) {
	t.Helper()
	for c := int16(1); cs != nil && int(c) <= p.NumCounters(); c++ {
		if p.holdsWitness(cs, c) && !liveBit(cs, c) {
			t.Fatalf("%s: counter %d holds a witness and its live bit is clear: %v\n%s", name, c, cs, p)
		}
	}
}

// checkComposed drives the composed programs of sets, the singleton
// programs behind ApplyAll and the oracle through the same (set, pos)
// sequence and requires, after every visit, identical confirmed ids,
// identical memory, registers and counter image, and the live summary's
// invariant. The oracle never looks at the summary.
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
		image := func(cs Counters) Counters { return cs[:min(len(cs), p.CountersLen())] }
		for _, got := range []flowState{one, all} {
			if !slices.Equal(got.m, ref.m) || !slices.Equal(got.regs, ref.regs) || !slices.Equal(image(got.cs), image(ref.cs)) {
				t.Fatalf("%s: visit %d set %v pos %d: state diverged\nref %v %v %v\ngot %v %v %v\n%s",
					name, vi, sets[si], pos, ref.m, ref.regs, ref.cs, got.m, got.regs, got.cs, p)
			}
			checkLive(t, fmt.Sprintf("%s: visit %d set %v pos %d", name, vi, sets[si], pos), p, got.cs)
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
	o := p.AddCounter(2, OpenGap)
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
		14: {Test: NoBit, Set: NoBit, Clear: NoBit, SetCtr: o},                         // Inc o, open: keeps the first
		15: {Test: NoBit, Set: NoBit, Clear: NoBit, ResetCtr: o},                       // Reset o
		16: {Test: NoBit, Set: NoBit, Clear: NoBit, TestCtr: o, Report: 116},           // Ctr(o) in window
		17: {Test: NoBit, Set: NoBit, Clear: NoBit, SetCtr: o, ResetCtr: o},            // Inc o and Reset o
		18: {Test: 3, Set: NoBit, Clear: NoBit, SetCtr: o},                             // guarded Inc o
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
		{14, 15, 16}, {14, 16, 15}, {15, 14, 16}, {15, 16, 14}, {16, 14, 15}, {16, 15, 14}, // the same on the open counter, where Inc and Reset do not commute
		{6, 14, 15}, {6, 10, 14, 13, 15, 16}, {15, 14, 15}, {14, 15, 14, 15}, {17}, {6, 17, 16}, {6, 1, 18, 15}, {15, 6, 14}, // a span open ahead of Inc o that Reset o must not join
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
			// inside the [2,5] window and an open witness close to its
			// two-byte minimum.
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
			if rng.Intn(3) == 0 {
				p.AddCounter(lo, OpenGap)
			} else {
				p.AddCounter(lo, lo+int32(rng.Intn(150)))
			}
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

// shape renders a program one word per op, guards with the number of ops
// they cover: what the shape tests pin.
func shape(ap AcceptProgram) string {
	names := [...]string{opTestBit: "bit", opTestGap: "gap", opTestCtr: "ctr", opTestOpen: "octr", opCtrLive: "live",
		opSetBits: "set", opClearBits: "clear", opRecordPos: "pos", opCtrRecord: "inc", opCtrReset: "reset",
		opOpenRecord: "oinc", opOpenReset: "oreset", opReport: "report"}
	var words []string
	for _, o := range ap {
		w := names[o.kind]
		if o.kind <= opCtrLive {
			w += fmt.Sprintf("+%d", o.skip)
		}
		words = append(words, w)
	}
	return strings.Join(words, " ")
}

// TestComposeShapes checks what Compose reports and that merging happens:
// the shape the splitter emits for a line-end state — several counter
// resets and clear groups, all unconditional — costs one live guard, one
// op per counter and one per memory word, not one per id, and two ops when
// no counter is live:
//
//	live+4 {c1..c4}; reset c1; reset c2; reset c3; reset c4; clear word 0; clear word 1
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
	if got, want := shape(progs[0]), "live+4 reset reset reset reset clear clear"; got != want {
		t.Errorf("line-end set compiled to %q, want %q", got, want)
	}
	if got := progs[0][0].mask; got != 0b1111 {
		t.Errorf("live guard mask %#b, want counters 1-4", got)
	}
	if shape(progs[1]) != "bit+1 report" || len(progs[3]) != 0 {
		t.Errorf("guarded reporter %q (want bit+1 report), drop-only set %q (want none)", shape(progs[1]), shape(progs[3]))
	}
	if &progs[0][0] != &progs[2][0] {
		t.Error("equal decision sets do not share one program")
	}
	if st.Programs != 3 || st.Widest.IDs != 6 || st.Widest.Ops != 7 || st.WidestQuiet != 3 || st.LiveGuards != 1 {
		t.Errorf("stats %+v, want 3 programs, widest 6 ids -> 7 ops (3 when quiet), 1 live guard", st)
	}
	if want := 9*32 + len(sets)*24; st.Bytes != want {
		t.Errorf("Bytes = %d, want %d", st.Bytes, want)
	}
}

// TestLiveGuardShapes pins how resets compile (DESIGN.md §21): which share
// a live guard, which are dropped, which stand alone.
func TestLiveGuardShapes(t *testing.T) {
	p := NewProgramRegs(160, 130, 1)
	for i := 0; i < 70; i++ {
		p.AddCounter(2, 40)
	}
	open := p.AddCounter(3, OpenGap) // counter 71, on the second live word
	open1 := p.AddCounter(3, OpenGap)
	plain := Action{Test: NoBit, Set: NoBit, Clear: NoBit}
	with := func(f func(*Action)) Action { a := plain; f(&a); return a }
	for c := int16(1); c <= open1; c++ {
		p.SetAction(int32(c), with(func(a *Action) { a.ResetCtr = c })) // id c: Reset c
	}
	p.SetAction(101, with(func(a *Action) { a.SetCtr = 1 }))                  // Inc 1
	p.SetAction(102, with(func(a *Action) { a.Test, a.ResetCtr = 5, 2 }))     // Test 5 to Reset 2
	p.SetAction(103, with(func(a *Action) { a.Set, a.Report = 7, 9 }))        // Set 7 and Match
	p.SetAction(104, with(func(a *Action) { a.Set, a.SetPos = 8, 1 }))        // Set 8 and Record 1
	p.SetAction(105, with(func(a *Action) { a.TestCtr, a.Report = 1, 3 }))    // Ctr(1) in window to Match
	p.SetAction(106, with(func(a *Action) { a.ResetCtr, a.Clear = 1, 7 }))    // Clear 7 and Reset 1
	p.SetAction(107, with(func(a *Action) { a.SetCtr, a.ResetCtr = 3, 3 }))   // Inc 3 and Reset 3
	p.SetAction(108, with(func(a *Action) { a.ResetCtr, a.Set = 68, 100 }))   // Set 100 and Reset 68
	p.SetAction(109, with(func(a *Action) { a.SetCtr = open }))               // Inc 71
	p.SetAction(110, with(func(a *Action) { a.TestCtr, a.Report = open, 4 })) // Ctr(71) in window to Match
	p.SetAction(111, with(func(a *Action) { a.SetCtr, a.ResetCtr = open, open }))
	all := make([]int32, 70)
	for i := range all {
		all[i] = int32(i + 1)
	}
	for _, tc := range []struct {
		name string
		ids  []int32
		want string
	}{
		{"one reset", []int32{1}, "live+1 reset"},
		{"the same counter twice", []int32{1, 106, 1}, "live+1 reset clear"},
		{"Inc c then Reset c", []int32{101, 1}, "inc live+1 reset"},
		{"Reset c then Inc c", []int32{1, 101}, "live+1 reset inc"},
		{"Reset c, Inc c, Reset c", []int32{1, 101, 1}, "live+1 reset inc"},
		{"a guarded action's reset stands alone", []int32{102}, "bit+1 reset"},
		{"and shares no guard with its neighbours", []int32{1, 102, 3}, "live+1 reset bit+1 reset live+1 reset"},
		{"a reset joins its span past other ids' ops", []int32{1, 103, 104, 101, 2, 103, 3}, "live+3 reset reset reset set report pos inc report"},
		{"a counter test ends the run", []int32{1, 105, 2}, "live+1 reset ctr+1 report live+1 reset"},
		{"one action's Inc c and Reset c", []int32{2, 107}, "live+2 reset reset inc"},
		{"one guard per live word", []int32{1, 66, 2, 108, 67}, "live+2 reset reset live+3 reset reset reset set"},
		{"seventy counters", all, "live+64" + strings.Repeat(" reset", 64) + " live+6" + strings.Repeat(" reset", 6)},
		{"an open counter's reset shares the guard of its live word", []int32{66, 71, 109, 67}, "live+3 reset oreset reset oinc"},
		{"the splitter's order: Reset c, Inc c, the test of another rule", []int32{71, 109, 110}, "live+1 oreset oinc octr+1 report"},
		{"Inc c then Reset c, open: the reset stays behind the record", []int32{109, 71}, "oinc live+1 oreset"},
		{"and does not join a span opened ahead of the record", []int32{66, 109, 71, 67}, "live+1 reset oinc live+2 oreset reset"},
		{"another open counter's reset still may", []int32{66, 109, 72}, "live+2 reset oreset oinc"},
		{"one action's Inc c and Reset c, open", []int32{66, 111}, "live+1 reset oinc live+1 oreset"},
		{"a repeated open reset is dropped on either side of the record", []int32{71, 109, 71}, "live+1 oreset oinc"},
	} {
		progs, st := p.Compose([][]int32{tc.ids})
		if got := shape(progs[0]); got != tc.want {
			t.Errorf("%s: %v compiled to %q, want %q", tc.name, tc.ids, got, tc.want)
		}
		if want := strings.Count(tc.want, "live"); st.LiveGuards != want {
			t.Errorf("%s: %d live guards reported, want %d", tc.name, st.LiveGuards, want)
		}
		var single []string
		for _, id := range tc.ids { // ApplyAll's programs come from the same composer
			s := p.singles[id]
			single = append(single, shape(p.compiled.ops[s[0]:s[1]]))
		}
		if got, _ := p.Compose([][]int32{tc.ids[:1]}); shape(got[0]) != single[0] {
			t.Errorf("%s: id %d alone composes to %q, its singleton program is %q", tc.name, tc.ids[0], shape(got[0]), single[0])
		}
	}
	if _, st := p.Compose([][]int32{all}); st.Widest.Ops != 72 || st.WidestQuiet != 2 {
		t.Errorf("seventy resets: %+v, want 72 ops, 2 when quiet", st)
	}
}

// TestLiveSummary walks the summary's life cycle on hand-built visits the
// random generator rarely reaches, each checked against the oracle after
// every visit (checkComposed) and then for what the bit must read.
func TestLiveSummary(t *testing.T) {
	p := NewProgram(11, 8)
	c := p.AddCounter(2, 5) // one bitmap word would hold the window; the block has two
	d := p.AddCounter(1, 3)
	o := p.AddCounter(3, OpenGap)
	plain := Action{Test: NoBit, Set: NoBit, Clear: NoBit}
	inc, reset, test, guarded, incD, resetD, incO, resetO, testO := plain, plain, plain, plain, plain, plain, plain, plain, plain
	inc.SetCtr, reset.ResetCtr, incD.SetCtr, resetD.ResetCtr, incO.SetCtr, resetO.ResetCtr = c, c, d, d, o, o
	test.TestCtr, test.Report = c, 77
	testO.TestCtr, testO.Report = o, 78
	guarded.Test, guarded.ResetCtr = 0, c
	for id, a := range []Action{1: inc, 2: reset, 3: test, 4: guarded, 5: incD, 6: resetD, 7: {Test: NoBit, Set: 0, Clear: NoBit},
		8: incO, 9: resetO, 10: testO} {
		if id > 0 {
			p.SetAction(int32(id), a)
		}
	}
	type visit struct {
		pos int64
		ids []int32
	}
	for _, tc := range []struct {
		name          string
		visits        []visit
		witness, live bool  // of the counter watched, after the last visit
		confirmed     int   // reports of the counter test over all visits
		watched       int16 // c, or the open counter o
	}{
		{"Inc c then Reset c at one position: the witness survives", []visit{{10, []int32{1, 2}}, {13, []int32{3}}}, true, true, 1, c},
		{"Reset c then Inc c at one position: the same", []visit{{10, []int32{2, 1}}, {13, []int32{3}}}, true, true, 1, c},
		{"a later Reset c kills it and clears the bit", []visit{{10, []int32{1}}, {11, []int32{2}}, {13, []int32{3}}}, false, false, 0, c},
		{"Reset c after the witness aged out, inside the bitmap", []visit{{10, []int32{1}}, {100, []int32{2}}}, false, false, 0, c},
		{"Reset c after the witness aged out, beyond the bitmap", []visit{{10, []int32{1}}, {5000, []int32{2}}}, false, false, 0, c},
		{"Reset c with a younger witness in a higher word", []visit{{10, []int32{1}}, {70, []int32{1}}, {70, []int32{2}}, {73, []int32{3}}}, true, true, 1, c},
		{"a neighbour's reset leaves c alone", []visit{{10, []int32{1, 5}}, {11, []int32{6}}, {13, []int32{3}}}, true, true, 1, c},
		{"two ids resetting c in one set", []visit{{10, []int32{1}}, {12, []int32{2, 6, 2}}, {13, []int32{3}}}, false, false, 0, c},
		{"a guarded reset whose guard fails", []visit{{10, []int32{1}}, {11, []int32{4}}, {13, []int32{3}}}, true, true, 1, c},
		{"a guarded reset whose guard passes", []visit{{10, []int32{1, 7}}, {11, []int32{4}}, {13, []int32{3}}}, false, false, 0, c},
		{"a reset on a counter never recorded", []visit{{10, []int32{2, 6}}, {13, []int32{3}}}, false, false, 0, c},
		// The open counter keeps one witness, the first; Inc and Reset at one
		// position run in id order, and with an older witness the order shows.
		{"open: Inc o then Reset o on an empty counter: the witness survives", []visit{{12, []int32{8, 9}}, {14, []int32{10}}, {15, []int32{10}}}, true, true, 1, o},
		{"open: Reset o then Inc o on an empty counter: the same", []visit{{12, []int32{9, 8}}, {14, []int32{10}}, {15, []int32{10}}}, true, true, 1, o},
		{"open: Inc o then Reset o over an older witness: kept, then killed", []visit{{10, []int32{8}}, {12, []int32{8, 9}}, {15, []int32{10}}}, false, false, 0, o},
		{"open: Reset o then Inc o over an older witness: killed, then pos recorded", []visit{{10, []int32{8}}, {12, []int32{9, 8}}, {14, []int32{10}}, {15, []int32{10}}}, true, true, 1, o},
		{"open: the same behind a neighbour's reset, whose span Reset o must not join across Inc o", []visit{{10, []int32{8}}, {12, []int32{6, 8, 9}}, {15, []int32{10}}}, false, false, 0, o},
		{"open: a later Inc o does not move the witness", []visit{{10, []int32{8}}, {12, []int32{8}}, {13, []int32{10}}}, true, true, 1, o},
		{"open: the witness never ages out", []visit{{10, []int32{8}}, {1 << 40, []int32{10}}}, true, true, 1, o},
		{"open: a later Reset o kills it and clears the bit", []visit{{10, []int32{8}}, {11, []int32{9}}, {20, []int32{10}}}, false, false, 0, o},
		{"open: a reset on a counter never recorded", []visit{{10, []int32{9, 2}}, {20, []int32{10}}}, false, false, 0, o},
	} {
		for _, nilCtrs := range []bool{false, true} {
			sets := make([][]int32, len(tc.visits))
			order := make([]int, len(tc.visits))
			steps := make([]int64, len(tc.visits))
			for i, v := range tc.visits {
				sets[i], order[i], steps[i] = v.ids, i, v.pos
				if i > 0 {
					steps[i] -= tc.visits[i-1].pos
				}
			}
			next := 0
			step := func() int64 { next++; return steps[next-1] }
			checkComposed(t, tc.name, p, sets, order, step, false, nilCtrs)

			progs, _ := p.Compose(sets)
			st := newFlowState(p, false, nilCtrs)
			confirmed := 0
			for i, v := range tc.visits {
				progs[i].Run(st.m, st.regs, st.cs, v.pos, func(int32, int64) { confirmed++ })
			}
			if nilCtrs { // nothing recorded, every counter test fails, nothing panics
				if confirmed != 0 {
					t.Errorf("%s: %d matches confirmed without counter state", tc.name, confirmed)
				}
				continue
			}
			if got := p.holdsWitness(st.cs, tc.watched); got != tc.witness {
				t.Errorf("%s: counter holds a witness: %v, want %v", tc.name, got, tc.witness)
			}
			if got := liveBit(st.cs, tc.watched); got != tc.live {
				t.Errorf("%s: live bit %v, want %v", tc.name, got, tc.live)
			}
			if confirmed != tc.confirmed {
				t.Errorf("%s: %d matches confirmed, want %d", tc.name, confirmed, tc.confirmed)
			}
		}
	}
}

// TestComposeManyResets composes 70,000 ids that all carry Reset 1 as one
// decision set. A live guard's skip is a uint16; what keeps it from
// wrapping is that a reset of a counter already under the guard is dropped,
// which bounds a span at the 64 counters of a live word.
func TestComposeManyResets(t *testing.T) {
	const n = 70_000
	p := NewProgram(n+1, 1)
	c := p.AddCounter(1, 10)
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i + 1)
		p.SetAction(ids[i], Action{Test: NoBit, Set: NoBit, Clear: NoBit, ResetCtr: c})
	}
	progs, st := p.Compose([][]int32{ids})
	if got := shape(progs[0]); got != "live+1 reset" || st.Widest.IDs != n {
		t.Fatalf("%d ids of Reset 1 compiled to %q (%+v), want live+1 reset", n, got, st)
	}
	cs := p.NewCounters()
	p.ctrRecord(cs, c, 3)
	*cs.liveWord(0) |= 1
	progs[0].Run(p.NewMemory(), nil, cs, 5, nil)
	if p.holdsWitness(cs, c) || liveBit(cs, c) {
		t.Errorf("the composed reset left a witness or the live bit behind: %v", cs)
	}
}
