package filter

import (
	"math/rand"
	"slices"
	"testing"
)

// forgets reports whether a compiles to ops that only forget: no guard, no
// set, no record, no report.
func forgets(a Action) bool {
	return a.Test == NoBit && a.Set == NoBit && a.SetPos == NoReg && a.GapReg == NoReg &&
		a.SetCtr == NoCtr && a.TestCtr == NoCtr && a.Report == NoReport
}

// TestResetOnly pins which composed programs are reset-only (DESIGN.md §21) —
// clears, clear groups, resets of windowed and open counters, drop ids and
// the empty set qualify; a bit, gap or counter test, a set, a position or
// counter record and a report each disqualify, alone or beside forgetting
// ids — and what Quiet.Holds reads. Then the property the skip rests on:
// over random programs and random flow states, whenever Holds is true every
// reset-only program leaves memory, registers and counters as they are and
// emits nothing.
func TestResetOnly(t *testing.T) {
	p := NewProgramRegs(16, 130, 1)
	g := p.AddClearGroup([]int16{5, 70})
	c := p.AddCounter(2, 40)
	o := p.AddCounter(2, OpenGap)
	plain := Action{Test: NoBit, Set: NoBit, Clear: NoBit}
	with := func(f func(*Action)) Action { a := plain; f(&a); return a }
	for id, a := range []Action{
		1:  with(func(a *Action) { a.Clear = 3 }),
		2:  with(func(a *Action) { a.ClearGroup = g }),
		3:  with(func(a *Action) { a.ResetCtr = c }),
		4:  with(func(a *Action) { a.ResetCtr = o }),
		6:  with(func(a *Action) { a.Test = 3 }),
		7:  with(func(a *Action) { a.Set = 3 }),
		8:  with(func(a *Action) { a.SetPos = 1 }),
		9:  with(func(a *Action) { a.SetCtr = c }),
		10: with(func(a *Action) { a.Report = 7 }),
		11: with(func(a *Action) { a.Test, a.ResetCtr = 3, c }),
		12: with(func(a *Action) { a.TestCtr, a.Report = c, 7 }),
		13: with(func(a *Action) { a.GapReg, a.MinGap, a.Clear = 1, 2, 3 }),
		14: with(func(a *Action) { a.SetCtr, a.ResetCtr = o, o }),
	} {
		if id > 0 && a != (Action{}) {
			p.SetAction(int32(id), a)
		}
	}
	for _, tc := range []struct {
		ids  []int32
		want bool
	}{
		{[]int32{1}, true}, {[]int32{2}, true}, {[]int32{3}, true}, {[]int32{4}, true},
		{[]int32{5}, true}, {nil, true}, {[]int32{1, 2, 3, 4, 5, 3}, true}, // 5 has no action: a drop
		{[]int32{6}, false}, {[]int32{7}, false}, {[]int32{8}, false}, {[]int32{9}, false},
		{[]int32{10}, false}, {[]int32{11}, false}, {[]int32{12}, false}, {[]int32{13}, false},
		{[]int32{14}, false}, {[]int32{1, 2, 3, 7}, false}, {[]int32{3, 9}, false}, {[]int32{10, 1}, false},
	} {
		progs, _ := p.Compose([][]int32{tc.ids})
		if got := progs[0].ResetOnly(); got != tc.want {
			t.Errorf("%v (%s): ResetOnly %v, want %v", tc.ids, shape(progs[0]), got, tc.want)
		}
	}

	progs, _ := p.Compose([][]int32{{1, 3}, {2, 4}, {7}, {9, 4}})
	q := NewQuiet(progs)
	m, cs := p.NewMemory(), p.NewCounters()
	for _, tc := range []struct {
		name  string
		touch func()
		holds bool
	}{
		{"a fresh flow", func() {}, true},
		{"a bit no reset-only program clears", func() { m.setBit(4) }, true},
		{"bit 3", func() { m.setBit(3) }, false},
		{"bit 70, of the clear group", func() { m.clearBit(3); m.setBit(70) }, false},
		{"counter c live", func() { m.clearBit(70); *cs.liveWord(0) |= 1 << (c - 1) }, false},
		{"counter o live", func() { *cs.liveWord(0) = 1 << (o - 1) }, false},
	} {
		tc.touch()
		if got := q.Holds(m, cs); got != tc.holds {
			t.Errorf("%s: Holds %v, want %v (summary %+v)", tc.name, got, tc.holds, q)
		}
	}
	if !q.Holds(p.NewMemory(), nil) {
		t.Error("Holds is false on nil counters")
	}

	rng := rand.New(rand.NewSource(29))
	checked, loud := 0, 0
	for trial := 0; trial < 300; trial++ {
		p, sets := randomForgetting(rng)
		progs, _ := p.Compose(sets)
		q := NewQuiet(progs)
		for i, ids := range sets {
			want := true
			for _, id := range ids {
				want = want && forgets(p.Action(id))
			}
			if progs[i].ResetOnly() != want {
				t.Fatalf("trial %d: set %v (%s): ResetOnly %v, want %v\n%s", trial, ids, shape(progs[i]), !want, want, p)
			}
		}
		st := newFlowState(p, false, false)
		var pos int64
		for visit := 0; visit < 40; visit++ {
			pos += int64(rng.Intn(6))
			if rng.Intn(4) == 0 { // noise outside every mask the summary reads
				for w := range st.m {
					noise := rng.Uint64()
					if w < len(q.mem) {
						noise &^= q.mem[w]
					}
					st.m[w] |= noise
				}
			}
			holds := q.Holds(st.m, st.cs)
			for i, ap := range progs {
				if !ap.ResetOnly() {
					continue
				}
				after := flowState{m: st.m.Clone(), regs: st.regs.Clone(), cs: st.cs.Clone()}
				ap.Run(after.m, after.regs, after.cs, pos, func(r int32, _ int64) {
					t.Fatalf("trial %d: reset-only set %v reported %d", trial, sets[i], r)
				})
				same := slices.Equal(after.m, st.m) && slices.Equal(after.regs, st.regs) && slices.Equal(after.cs, st.cs)
				switch {
				case holds && !same:
					t.Fatalf("trial %d visit %d: Holds, and set %v (%s) changed the flow\nbefore %v %v %v\nafter  %v %v %v\n%s",
						trial, visit, sets[i], shape(ap), st.m, st.regs, st.cs, after.m, after.regs, after.cs, p)
				case holds:
					checked++
				case !same:
					loud++
				}
			}
			progs[rng.Intn(len(progs))].Run(st.m, st.regs, st.cs, pos, func(int32, int64) {})
		}
	}
	if checked < 1000 || loud < 100 {
		t.Errorf("%d reset-only runs on quiet flows, %d that changed a loud one: the property was barely exercised", checked, loud)
	}
}

// randomForgetting returns a random program whose first ids only forget
// (clears, clear groups, counter resets) and whose others are unrestricted,
// and decision sets over them: half of forgetting ids only.
func randomForgetting(rng *rand.Rand) (*Program, [][]int32) {
	memBits := 1 + rng.Intn(150)
	numIDs := 4 + rng.Intn(20)
	p := NewProgramRegs(numIDs, memBits, 1+rng.Intn(2))
	for g := rng.Intn(3); g > 0; g-- {
		bits := make([]int16, 1+rng.Intn(5))
		for i := range bits {
			bits[i] = int16(rng.Intn(memBits))
		}
		p.AddClearGroup(bits)
	}
	for k := 1 + rng.Intn(4); k > 0; k-- {
		lo := int32(1 + rng.Intn(5))
		if rng.Intn(3) == 0 {
			p.AddCounter(lo, OpenGap)
		} else {
			p.AddCounter(lo, lo+int32(rng.Intn(100)))
		}
	}
	bit := func() int16 { return int16(rng.Intn(memBits)) }
	maybe := func(n int) int { return rng.Intn(n+1) * rng.Intn(2) } // 0 half the time, else 0..n
	half := numIDs / 2
	for id := 1; id < numIDs; id++ {
		a := Action{Test: NoBit, Set: NoBit, Clear: NoBit}
		if rng.Intn(2) == 0 {
			a.Clear = bit()
		}
		a.ClearGroup = int32(maybe(p.NumClearGroups()))
		a.ResetCtr = int16(maybe(p.NumCounters()))
		if id >= half {
			switch rng.Intn(6) {
			case 0:
				a.Test = bit()
			case 1:
				a.Set = bit()
			case 2:
				a.SetCtr = int16(1 + rng.Intn(p.NumCounters()))
			case 3:
				a.Report = int32(1 + rng.Intn(50))
			case 4:
				a.SetPos = 1
			case 5:
				a.TestCtr, a.Report = int16(1+rng.Intn(p.NumCounters())), 9
			}
		}
		p.SetAction(int32(id), a)
	}
	sets := make([][]int32, 2+rng.Intn(6))
	for i := range sets {
		limit := half
		if i%2 == 1 {
			limit = numIDs - 1
		}
		sets[i] = make([]int32, rng.Intn(6))
		for j := range sets[i] {
			sets[i][j] = int32(1 + rng.Intn(limit))
		}
	}
	return p, sets
}
