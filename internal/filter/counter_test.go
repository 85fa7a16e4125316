package filter

import (
	"strings"
	"testing"
)

// ctrProg builds a single-counter program for direct window testing.
func ctrProg(t *testing.T, minGap, maxGap int32) (*Program, int16, Counters) {
	t.Helper()
	p := NewProgram(2, 1)
	c := p.AddCounter(minGap, maxGap)
	return p, c, p.NewCounters()
}

func TestCounterWindow(t *testing.T) {
	p, c, cs := ctrProg(t, 3, 5)
	if p.ctrTest(cs, c, 100) {
		t.Fatal("empty counter passed a test")
	}
	p.ctrRecord(cs, c, 10)
	for _, tc := range []struct {
		pos  int64
		want bool
	}{
		{10, false}, // gap 0
		{12, false}, // gap 2 < MinGap
		{13, true},  // gap 3 = MinGap
		{14, true},
		{15, true},  // gap 5 = MaxGap
		{16, false}, // gap 6 > MaxGap
		{500, false},
	} {
		if got := p.ctrTest(cs, c, tc.pos); got != tc.want {
			t.Errorf("test at pos %d: got %v, want %v", tc.pos, got, tc.want)
		}
	}
}

// TestCounterMultipleWitnesses is the case that proves a scalar counter
// (earliest-only or latest-only witness) cannot implement bounded
// windows: with witnesses at 0 and 4 and window [3,5], position 5 is
// satisfied only by the older witness and position 7 only by the newer.
func TestCounterMultipleWitnesses(t *testing.T) {
	p, c, cs := ctrProg(t, 3, 5)
	p.ctrRecord(cs, c, 0)
	p.ctrRecord(cs, c, 4)
	for _, tc := range []struct {
		pos  int64
		want bool
	}{
		{5, true},  // witness 0 (gap 5); witness 4 too young
		{6, false}, // witness 0 expired (gap 6), witness 4 gap 2 < 3
		{7, true},  // witness 4 (gap 3); witness 0 long expired
		{9, true},  // witness 4 (gap 5)
		{10, false},
	} {
		if got := p.ctrTest(cs, c, tc.pos); got != tc.want {
			t.Errorf("test at pos %d: got %v, want %v", tc.pos, got, tc.want)
		}
	}
}

// TestCounterRebase drives a witness stream far past the bitmap span and
// checks that whole-word rebasing never drops an unexpired witness.
func TestCounterRebase(t *testing.T) {
	p, c, cs := ctrProg(t, 1, 100) // spanWords = 3, bitmap covers 192 positions
	w := p.counters[c-1].spanWords()
	if got := (w - 1) * 64; got < 101 {
		t.Fatalf("spanWords invariant violated: (w-1)*64 = %d < MaxGap+1", got)
	}

	p.ctrRecord(cs, c, 150)
	p.ctrRecord(cs, c, 200) // idx 200 >= 192 forces a rebase; witness 150 must survive
	if base := cs[0]; base == 0 {
		t.Fatal("recording at 200 did not rebase the window")
	}
	if !p.ctrTest(cs, c, 250) { // gap 100 from witness 150
		t.Error("rebase dropped the unexpired witness at 150")
	}
	if !p.ctrTest(cs, c, 300) { // gap 100 from witness 200
		t.Error("witness at 200 missing after rebase")
	}
	if p.ctrTest(cs, c, 301) {
		t.Error("expired witnesses passed the test")
	}

	// A jump far beyond the span zeroes the whole bitmap, keeping only
	// the new witness.
	p.ctrRecord(cs, c, 100_000)
	if p.ctrTest(cs, c, 100_000+99) != true || p.ctrTest(cs, c, 100_000) != false {
		t.Error("far-jump rebase produced wrong window")
	}
	for pos := int64(100_001); pos <= 100_100; pos++ {
		if !p.ctrTest(cs, c, pos) {
			t.Fatalf("witness at 100000 missing at pos %d after far rebase", pos)
		}
	}
}

// TestCounterRebaseDense records every position across several spans and
// cross-checks ctrTest against a naive witness list.
func TestCounterRebaseDense(t *testing.T) {
	p, c, cs := ctrProg(t, 7, 40)
	var witnesses []int64
	naive := func(pos int64) bool {
		for _, w := range witnesses {
			if gap := pos - w; gap >= 7 && gap <= 40 {
				return true
			}
		}
		return false
	}
	// A fixed xorshift stream: record at ~1/3 of positions.
	s := uint64(12345)
	for pos := int64(0); pos < 2000; pos++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		if s%3 == 0 {
			p.ctrRecord(cs, c, pos)
			witnesses = append(witnesses, pos)
		}
		if got, want := p.ctrTest(cs, c, pos), naive(pos); got != want {
			t.Fatalf("pos %d: ctrTest = %v, naive = %v", pos, got, want)
		}
	}
}

func TestCounterReset(t *testing.T) {
	p, c, cs := ctrProg(t, 1, 50)
	p.ctrRecord(cs, c, 5)
	p.ctrRecord(cs, c, 10)
	p.ctrRecord(cs, c, 12)
	p.ctrReset(cs, c, 12) // kills strictly-before-12: witness at 12 survives
	if p.ctrTest(cs, c, 6) || p.ctrTest(cs, c, 11) {
		t.Error("witnesses 5/10 survived reset at 12")
	}
	if !p.ctrTest(cs, c, 13) { // gap 1 from the surviving witness at 12
		t.Error("witness recorded at the reset position did not survive")
	}

	// Reset far beyond the span zeroes everything.
	p.ctrRecord(cs, c, 20)
	p.ctrReset(cs, c, 100_000)
	for pos := int64(0); pos < 200; pos++ {
		if p.ctrTest(cs, c, pos) {
			t.Fatalf("witness survived a far reset (pos %d)", pos)
		}
	}

	// Reset at or before base is a no-op.
	p.ctrRecord(cs, c, 100_100)
	p.ctrReset(cs, c, 0)
	if !p.ctrTest(cs, c, 100_101) {
		t.Error("reset at pos 0 killed a later witness")
	}
}

// TestOpenCounter: a window with no upper end is one word, the earliest
// witness since the last reset — through ApplyAll, the way a flow reaches it.
func TestOpenCounter(t *testing.T) {
	p := NewProgram(4, 1)
	p.AddCounter(1, 10) // a bitmap block ahead of it, so its offset is not 0
	c := p.AddCounter(3, OpenGap)
	if got := p.CountersLen() - int(p.ctrOff[c-1]); got != 1 {
		t.Fatalf("open counter owns %d words, want 1", got)
	}
	p.SetAction(1, Action{Test: NoBit, Set: NoBit, Clear: NoBit, SetCtr: c})
	p.SetAction(2, Action{Test: NoBit, Set: NoBit, Clear: NoBit, TestCtr: c, Report: 42})
	p.SetAction(3, Action{Test: NoBit, Set: NoBit, Clear: NoBit, ResetCtr: c})
	m, cs := p.NewMemory(), p.NewCounters()
	confirms := func(pos int64) bool { _, ok := p.ApplyAll(m, nil, cs, 2, pos); return ok }

	if confirms(100) {
		t.Fatal("empty counter confirmed a match")
	}
	p.ApplyAll(m, nil, cs, 1, 10)
	p.ApplyAll(m, nil, cs, 1, 12) // keep-first: 10 stays
	for pos, want := range map[int64]bool{10: false, 12: false, 13: true, 14: true, 5000: true, 1 << 50: true} {
		if got := confirms(pos); got != want {
			t.Errorf("witness 10, MinGap 3, test at %d: %v, want %v", pos, got, want)
		}
	}
	p.ApplyAll(m, nil, cs, 3, 10) // strict: a reset at the witness's own position spares it
	if !confirms(13) {
		t.Error("reset at the recording position killed the witness")
	}
	p.ApplyAll(m, nil, cs, 3, 11)
	if confirms(20) || liveBit(cs, c) {
		t.Error("reset past the witness left it, or its live bit, behind")
	}
	p.ApplyAll(m, nil, cs, 1, 0) // position 0 is a witness like any other
	if !confirms(3) || confirms(2) {
		t.Error("witness at position 0 mistested")
	}

	// The live bit is rebuilt from the word itself.
	fresh := p.NewCounters()
	p.RestoreCounters(fresh, cs[:p.CountersLen()])
	if !liveBit(fresh, c) || liveBit(fresh, 1) {
		t.Errorf("restored live summary: open %v, empty neighbour %v", liveBit(fresh, c), liveBit(fresh, 1))
	}
}

func TestApplyAllCounters(t *testing.T) {
	p := NewProgram(4, 1)
	c := p.AddCounter(3, 5)
	p.SetAction(1, Action{Test: NoBit, Set: NoBit, Clear: NoBit, SetCtr: c})
	p.SetAction(2, Action{Test: NoBit, Set: NoBit, Clear: NoBit, TestCtr: c, Report: 42})
	p.SetAction(3, Action{Test: NoBit, Set: NoBit, Clear: NoBit, ResetCtr: c})
	m := p.NewMemory()
	cs := p.NewCounters()

	if id, ok := p.ApplyAll(m, nil, cs, 2, 10); ok || id != 0 {
		t.Fatal("empty counter confirmed a match")
	}
	p.ApplyAll(m, nil, cs, 1, 10) // record witness at 10
	if id, ok := p.ApplyAll(m, nil, cs, 2, 12); ok || id != 0 {
		t.Error("gap 2 below MinGap confirmed")
	}
	if id, ok := p.ApplyAll(m, nil, cs, 2, 14); !ok || id != 42 {
		t.Error("gap 4 inside window did not confirm")
	}
	p.ApplyAll(m, nil, cs, 3, 12) // reset kills the witness at 10
	if id, ok := p.ApplyAll(m, nil, cs, 2, 14); ok || id != 0 {
		t.Error("reset did not kill the witness")
	}

	// Nil counter state: tests fail, updates are dropped, nothing panics
	// (mirrors nil Registers for gap conditions).
	p.ApplyAll(m, nil, nil, 1, 10)
	if _, ok := p.ApplyAll(m, nil, nil, 2, 14); ok {
		t.Error("nil counter state passed a counter test")
	}
}

func TestValidateCounters(t *testing.T) {
	p := NewProgram(2, 1)
	p.AddCounter(1, 10)
	p.AddCounter(1, 10)
	cs := p.NewCounters()
	if err := p.ValidateCounters(cs, 0); err != nil {
		t.Fatalf("fresh counters rejected: %v", err)
	}
	cs[0] = 5
	if err := p.ValidateCounters(cs, 4); err == nil {
		t.Error("base beyond pos accepted")
	}
	if err := p.ValidateCounters(cs, 5); err != nil {
		t.Errorf("base at pos rejected: %v", err)
	}
	// Second block's base checked too.
	off := int(p.ctrOff[1])
	cs[off] = ^uint64(0) // negative as int64
	if err := p.ValidateCounters(cs, 1<<40); err == nil {
		t.Error("negative base accepted")
	}
	cs[off] = 0
	// A truncated image validates only the bases it contains.
	if err := p.ValidateCounters(cs[:1], 10); err != nil {
		t.Errorf("truncated image rejected: %v", err)
	}
	if err := p.ValidateCounters(nil, 0); err != nil {
		t.Errorf("nil image rejected: %v", err)
	}

	// An open counter's word is a position plus one: at most pos+1.
	o := p.AddCounter(2, OpenGap)
	cs = p.NewCounters()
	off = int(p.ctrOff[o-1])
	for word, ok := range map[uint64]bool{0: true, 1: true, 8: true, 9: false, ^uint64(0): false} {
		cs[off] = word
		if err := p.ValidateCounters(cs, 7); (err == nil) != ok {
			t.Errorf("open witness word %d at pos 7: err %v, want ok %v", word, err, ok)
		}
	}
}

func TestCountersCloneReset(t *testing.T) {
	p := NewProgram(2, 1)
	c := p.AddCounter(1, 1) // window [1,1]: each witness satisfies exactly one position
	cs := p.NewCounters()
	p.ctrRecord(cs, c, 3)
	cl := cs.Clone()
	p.ctrRecord(cs, c, 5)
	if !p.ctrTest(cl, c, 4) {
		t.Error("Clone lost the witness at 3")
	}
	if p.ctrTest(cl, c, 6) { // witness 5 must not leak into the clone
		t.Error("Clone shares storage with the original")
	}
	cs.Reset()
	for i, w := range cs {
		if w != 0 {
			t.Fatalf("Reset left word %d = %#x", i, w)
		}
	}
	if Counters(nil).Clone() != nil {
		t.Error("nil Clone not nil")
	}
}

func TestAddCounterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		})
	}
	mustPanic("zero mingap", func() { NewProgram(2, 1).AddCounter(0, 5) })
	mustPanic("inverted window", func() { NewProgram(2, 1).AddCounter(6, 5) })
	mustPanic("excessive maxgap", func() { NewProgram(2, 1).AddCounter(1, MaxCounterGap+1) })
	mustPanic("nearly open", func() { NewProgram(2, 1).AddCounter(1, OpenGap-1) })
	mustPanic("open with zero mingap", func() { NewProgram(2, 1).AddCounter(0, OpenGap) })
	NewProgram(2, 1).AddCounter(1, OpenGap)
	NewProgram(2, 1).AddCounter(OpenGap, OpenGap)
}

func TestCheckActionCounters(t *testing.T) {
	p := NewProgram(4, 1)
	c := p.AddCounter(1, 10)
	ok := Action{Test: NoBit, Set: NoBit, Clear: NoBit, SetCtr: c, TestCtr: c, ResetCtr: c}
	if err := p.CheckAction(1, ok); err != nil {
		t.Fatalf("valid counter action rejected: %v", err)
	}
	for _, bad := range []Action{
		{Test: NoBit, Set: NoBit, Clear: NoBit, SetCtr: 2},
		{Test: NoBit, Set: NoBit, Clear: NoBit, TestCtr: -1},
		{Test: NoBit, Set: NoBit, Clear: NoBit, ResetCtr: 99},
	} {
		if err := p.CheckAction(1, bad); err == nil {
			t.Errorf("out-of-range counter slot accepted: %+v", bad)
		}
	}
}

func TestCounterActionString(t *testing.T) {
	p := NewProgram(4, 1)
	c := p.AddCounter(2, 9)
	a := Action{Test: NoBit, Set: 0, Clear: NoBit, SetCtr: c}
	if s := a.String(); !strings.Contains(s, "Inc 1") {
		t.Errorf("SetCtr action renders %q", s)
	}
	a = Action{Test: NoBit, Set: NoBit, Clear: NoBit, TestCtr: c, Report: 3}
	if s := a.String(); !strings.Contains(s, "Ctr(1) in window") || !strings.Contains(s, "Match") {
		t.Errorf("TestCtr action renders %q", s)
	}
	a = Action{Test: NoBit, Set: NoBit, Clear: NoBit, ResetCtr: c}
	if s := a.String(); !strings.Contains(s, "Reset 1") {
		t.Errorf("ResetCtr action renders %q", s)
	}
}
