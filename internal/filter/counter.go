package filter

import (
	"fmt"
	"math"
)

// Counter registers (DESIGN.md §19) extend the filter machine so that
// bounded gaps A X{n,m} B compile to per-flow counters instead of
// duplicated automaton states. The ISSUE-level op vocabulary — `inc c`,
// `test c>=n / c<=m`, `reset c` — is realized positionally: a counter
// holds the set of positions ("witnesses") where its recording fragment
// matched, each byte of traffic implicitly increments every witness's
// age, `test` asks whether any witness's age lies in [MinGap, MaxGap],
// and `reset` kills witnesses invalidated by a forbidden gap byte.
//
// A single scalar counter cannot reproduce exact regex semantics here:
// keeping only the earliest witness fails once it ages past MaxGap while
// a younger witness still qualifies, and keeping only the latest misses
// an older witness that already satisfies MinGap. Each counter therefore
// stores a base position plus a sliding bitmap of recent witnesses —
// bounded by the counter's MaxGap, so the per-flow cost is
// ceil((MaxGap+1)/64)+1 words of bitmap plus one base word.
//
// A window with no upper end is the exception that does fit a scalar: no
// witness ever ages out, so the earliest one since the last reset passes
// every test a later one would. A counter whose MaxGap is OpenGap owns one
// word holding that witness — the shape A[^X]*B compiles to when A and B
// overlap (DESIGN.md §8).

// NoCtr marks an unused counter slot in an Action. Counters are numbered
// from 1, like position registers, so the zero value means "unused" and
// pre-counter Action literals remain valid.
const NoCtr = 0

// MaxCounterGap bounds a counter's MaxGap. It caps the per-flow bitmap at
// 66 words and, at decode time, keeps a hostile stream from declaring
// counters whose per-flow state would be unbounded. Comfortably above
// regexparse.MaxRepeatCount plus any realistic trailing-segment length.
const MaxCounterGap = 1 << 12

// OpenGap is the one MaxGap above MaxCounterGap: it marks a window that
// never closes. An open counter's per-flow block is a single word, the
// earliest witness since the last reset as position+1 (0: none) — record
// keeps the first, test asks pos − witness ≥ MinGap, reset kills a witness
// strictly before pos.
const OpenGap = math.MaxInt32

// MaxCounters bounds how many counters one program may declare: the
// Action slots addressing them are int16, and each counter costs per-flow
// state, so the cap also bounds what a decoded program can demand.
const MaxCounters = 4096

// Counter is the static descriptor of one counter register: the inclusive
// window, in bytes of gap distance, within which a recorded witness
// satisfies the counter's test. For a rule A X{n,m} B with fixed B-length
// L, MinGap = n + L and MaxGap = m + L; for A [^X]* B split on positions,
// MinGap = L and MaxGap = OpenGap.
type Counter struct {
	MinGap int32
	MaxGap int32
}

// Open reports whether the window has no upper end.
func (c Counter) Open() bool { return c.MaxGap == OpenGap }

// spanWords returns the number of bitmap words a counter's per-flow block
// needs. The extra word guarantees that rebasing by whole words (the only
// rebase granularity) can always bring a new witness position in range
// without dropping an unexpired one: (spanWords-1)*64 >= MaxGap+1.
func (c Counter) spanWords() int {
	return int(c.MaxGap+1+63)/64 + 1
}

// words returns the size of the counter's per-flow block: the one witness
// word of an open counter, or a base word and the bitmap.
func (c Counter) words() int {
	if c.Open() {
		return 1
	}
	return 1 + c.spanWords()
}

// witnessWords returns the words of the counter's block that are zero
// exactly when it holds no witness: all of an open block, a windowed one's
// bitmap.
func (c Counter) witnessWords(block []uint64) []uint64 {
	if c.Open() {
		return block
	}
	return block[1:]
}

// AddCounter registers a counter with the given witness window, returning
// its 1-based index for use in Action.SetCtr/TestCtr/ResetCtr; a maxGap of
// OpenGap makes it an open counter. It panics on out-of-range bounds: the splitter derives them, so a bad value is a
// construction bug. Untrusted inputs are validated by ReadProgram.
func (p *Program) AddCounter(minGap, maxGap int32) int16 {
	if err := checkCounter(Counter{MinGap: minGap, MaxGap: maxGap}); err != nil {
		panic(err.Error())
	}
	if len(p.counters) >= MaxCounters {
		panic(fmt.Sprintf("filter: more than %d counters", MaxCounters))
	}
	p.counters = append(p.counters, Counter{MinGap: minGap, MaxGap: maxGap})
	p.ctrLayout()
	return int16(len(p.counters))
}

// checkCounter validates one counter descriptor; shared by the
// construction panic path and the decode error path.
func checkCounter(c Counter) error {
	if c.MinGap < 1 || c.MaxGap < c.MinGap || (c.MaxGap > MaxCounterGap && !c.Open()) {
		return fmt.Errorf("filter: counter window [%d,%d] outside [1,%d] and not open", c.MinGap, c.MaxGap, MaxCounterGap)
	}
	return nil
}

// ctrLayout recomputes the flattened per-flow block offsets. Block i holds
// one base word followed by spanWords bitmap words, or an open counter's
// one witness word.
func (p *Program) ctrLayout() {
	p.ctrOff = p.ctrOff[:0]
	total := 0
	for _, c := range p.counters {
		p.ctrOff = append(p.ctrOff, int32(total))
		total += c.words()
	}
	p.ctrTotal = total
}

// NumCounters returns the number of counter registers the program uses.
func (p *Program) NumCounters() int { return len(p.counters) }

// CounterBounds returns the descriptor of the 1-based counter c.
func (p *Program) CounterBounds(c int16) Counter { return p.counters[c-1] }

// CountersLen returns the per-flow counter-state size in words — the
// length of the image a flow context saves and SetContext accepts.
func (p *Program) CountersLen() int { return p.ctrTotal }

// Counters is one flow's counter state: the concatenated per-counter
// blocks (base word, then bitmap words; or an open counter's one word) —
// the image, [:CountersLen()] —
// and behind it the live summary, one bit per counter under the invariant
// "block holds a witness ⇒ its bit is set", which lets a reset of an empty
// counter cost one test (accept.go). The summary is derived state: never
// saved, rebuilt by RestoreCounters, and addressed from the end of the
// slice (counter i is bit i&63 of word len-1-i>>6), so compiled ops stay
// valid when AddCounter grows the layout. Like Memory and Registers it is
// owned by one flow at a time and not safe for concurrent use.
type Counters []uint64

// NewCounters allocates zeroed counter state for the program, or nil when
// the program uses no counters.
func (p *Program) NewCounters() Counters {
	if p.ctrTotal == 0 {
		return nil
	}
	return make(Counters, p.ctrTotal+(len(p.counters)+63)/64)
}

// liveWord returns word w of the live summary of cs.
func (cs Counters) liveWord(w int32) *uint64 { return &cs[len(cs)-1-int(w)] }

// RestoreCounters overwrites cs, which NewCounters allocated, with a saved
// image of at most CountersLen words (a shorter one is zero-extended) and
// rebuilds the live summary from the restored blocks.
func (p *Program) RestoreCounters(cs, image Counters) {
	cs.Reset()
	copy(cs[:p.ctrTotal], image)
	for i, off := range p.ctrOff {
		c := p.counters[i]
		if !empty(c.witnessWords(cs[off : int(off)+c.words()])) {
			*cs.liveWord(int32(i) >> 6) |= 1 << (i & 63)
		}
	}
}

// empty reports whether bitmap words bm, or an open counter's one word, hold
// no witness.
func empty(bm []uint64) bool {
	for _, w := range bm {
		if w != 0 {
			return false
		}
	}
	return true
}

// Reset zeroes the counter state for reuse on a new flow.
func (c Counters) Reset() {
	for i := range c {
		c[i] = 0
	}
}

// Clone returns an independent copy, used when flow contexts are saved.
func (c Counters) Clone() Counters {
	if c == nil {
		return nil
	}
	out := make(Counters, len(c))
	copy(out, c)
	return out
}

// ValidateCounters checks a restored (possibly truncated, zero-extended)
// counter image against the program's layout: every counter base word
// present in cs must lie in [0, pos], and every open counter's word — a
// position plus one, or zero — in [0, pos+1]. Both only ever hold positions
// the flow has passed, so anything else marks a corrupted or foreign
// context; a base beyond pos would additionally break ctrBlock.record's
// window arithmetic. Bitmap bits are not constrained — stray witnesses
// cannot index out of range, only report matches the context claimed.
func (p *Program) ValidateCounters(cs Counters, pos int64) error {
	for i, c := range p.counters {
		off := int(p.ctrOff[i])
		if off >= len(cs) {
			break
		}
		limit, what := pos, "base"
		if c.Open() {
			limit, what = pos+1, "witness word"
		}
		if w := int64(cs[off]); w < 0 || w > limit {
			return fmt.Errorf("filter: counter %d %s %d outside [0,%d]", i+1, what, w, limit)
		}
	}
	return nil
}

// ctrBlock is one windowed counter's words within a flow's Counters: the
// base position, then spanWords bitmap words. (An open counter's one word is
// read and written by its ops in place, accept.go.) Accept programs carry each
// counter op's block bounds resolved, so nothing here consults the
// Program.
type ctrBlock []uint64

// record adds a witness at pos, rebasing the bitmap window forward (in
// whole words) when pos has outrun it. Rebasing drops only positions
// whose age already exceeds MaxGap+1 at pos — and ages only grow — so no
// witness that could still satisfy a future test is lost.
func (b ctrBlock) record(pos int64) {
	bm := b[1:]
	w := len(bm)
	base := int64(b[0])
	idx := pos - base
	if idx < 0 {
		// Unreachable under the SetContext invariant (base <= restore
		// position, and positions only grow); dropping the witness is the
		// safe degradation if it ever breaks.
		return
	}
	if idx >= int64(w)*64 {
		shift := idx/64 - int64(w-1)
		if shift >= int64(w) {
			clear(bm)
		} else {
			copy(bm, bm[shift:])
			clear(bm[int64(w)-shift:])
		}
		base += shift * 64
		b[0] = uint64(base)
		idx = pos - base
	}
	bm[idx>>6] |= 1 << uint(idx&63)
}

// test reports whether the block holds a witness whose distance from pos
// lies within [minGap, maxGap].
func (b ctrBlock) test(minGap, maxGap int32, pos int64) bool {
	bm := b[1:]
	base := int64(b[0])
	end := base + int64(len(bm))*64
	lo := pos - int64(maxGap)
	hi := pos - int64(minGap)
	if hi < base || lo >= end {
		return false
	}
	if lo < base {
		lo = base
	}
	if hi >= end {
		hi = end - 1
	}
	loIdx, hiIdx := lo-base, hi-base
	loWord, hiWord := int(loIdx>>6), int(hiIdx>>6)
	loMask := ^uint64(0) << uint(loIdx&63)
	hiMask := ^uint64(0) >> uint(63-hiIdx&63)
	if loWord == hiWord {
		return bm[loWord]&loMask&hiMask != 0
	}
	if bm[loWord]&loMask != 0 || bm[hiWord]&hiMask != 0 {
		return true
	}
	for i := loWord + 1; i < hiWord; i++ {
		if bm[i] != 0 {
			return true
		}
	}
	return false
}

// reset kills every witness recorded strictly before pos. It implements
// the classed-gap invalidation rule: a byte outside the gap class at pos
// invalidates every witness whose gap would contain that byte, while a
// witness recorded at pos itself (the forbidden byte being the recording
// fragment's final byte, not a gap byte) survives. It reports whether the
// block is known to be left empty, read off the words it touches: after
// the clear only the word holding pos and those above it can be non-zero.
func (b ctrBlock) reset(pos int64) bool {
	bm := b[1:]
	idx := pos - int64(b[0])
	if idx <= 0 {
		return false
	}
	if idx >= int64(len(bm))*64 {
		clear(bm)
		return true
	}
	word := int(idx >> 6)
	clear(bm[:word])
	bm[word] &= ^uint64(0) << uint(idx&63)
	return empty(bm[word:])
}
