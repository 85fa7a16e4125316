// Package splitter implements the paper's Regex Splitter (Algorithm 1):
// it rewrites each input regex into a collection of simpler fragments plus
// the match-filter actions that reconstruct the original matches.
//
// The paper's two decomposition patterns (§IV) are applied:
//
//	dot-star         .*A.*B{{n}}      →  .*A{{n'}} | .*B{{n}}
//	almost-dot-star  .*A[^X]*B{{n}}   →  .*A{{n'}} | .*[X]{{n''}} | .*B{{n}}
//
// with guard-bit chaining for regexes containing several separators. A
// guard-bit decomposition is applied only when the safety conditions hold:
// no non-empty suffix of A is a prefix of B and no word of A lies inside a
// word of B; for almost-dot-star, additionally no byte of X occurs anywhere
// in B or in a final position of A, and |X| is below the class-size
// threshold.
//
// One step beyond the paper: a separator that fails the overlap conditions
// is not refused when B has a fixed length L ≥ 1. A guard bit cannot say
// where A ended, but a recorded position can. A dot-star is split with the
// .{n,} mechanism at n = 0 — A records its earliest end in a position
// register, B confirms only when pos − recorded ≥ L. An almost-dot-star —
// also one whose A can end in a byte of X — is split with the [^X]{n,m}
// mechanism at n = 0 and no m: the record lives in an open-window counter
// that the [X] fragment resets, so it is A's earliest end since the last X
// byte (DESIGN.md §8). One step short of it: no separator is split, on a
// bit, a register or a counter, when A matches the empty string — such an A
// also ends before byte 0, where no fragment fires (DESIGN.md §6).
// Everything else that fails a check — X occurring in B, a variable-length
// B — is left intact: correctness is never traded for size, at the cost of
// keeping some state explosion (§I-D).
//
// The same two mechanisms close the paper's §VI counting gap: .{n,} splits
// on a position register (pos − recorded ≥ n + L) and X{n,m} with m ≥ 8 on
// a counter register (DESIGN.md §8, §19). All of these steps form the
// Extended construction, the zero value of Options; Paper turns every one
// of them off.
package splitter

import (
	"fmt"

	"matchfilter/internal/filter"
	"matchfilter/internal/regexparse"
)

// maxClassSize is the §IV-B threshold: if the negated class X of an
// almost-dot-star has this many bytes or more, the gap fragment .*[X]
// would fire on too much traffic and the decomposition is skipped.
const maxClassSize = 128

// counterThreshold is the minimum upper bound m of a bounded gap X{n,m}
// for the counter-register decomposition to apply. Smaller repeats expand
// to a handful of DFA states, cheaper than per-flow counter state and an
// extra filter event per occurrence.
const counterThreshold = 8

// Rule is one input regex with the id its matches must report.
type Rule struct {
	Pattern *regexparse.Pattern
	RuleID  int32
}

// Fragment is one decomposed regex: a pattern for the DFA plus the
// internal match id (an element of Di) it reports.
type Fragment struct {
	Pattern    *regexparse.Pattern
	InternalID int32
	// RuleID is the original rule this fragment came from.
	RuleID int32
}

// Construction selects which decompositions the splitter may apply.
type Construction int

const (
	// Extended, the zero value, is what core.Compile serves: the paper's
	// guard bits plus every exact step beyond it — position-checked
	// dot-star and almost-dot-star splits, .{n,} gaps on position
	// registers and X{n,m} gaps (m ≥ 8) on counter registers.
	Extended Construction = iota
	// Paper is the paper's conditions alone: guard bits only, and a
	// separator that fails them is refused. The "paper conditions" rows of
	// Table V and Figure 2 and the XFA baseline use it.
	Paper
	// PaperDotStar is Paper without almost-dot-star splits: the HFA
	// baseline, whose published model factors plain dot-star history only.
	PaperDotStar
	// Whole splits nothing: a plain multi-pattern DFA.
	Whole

	// Test seams, exported to tests by export_test.go: Extended with checks
	// removed, to show what each check prevents. Never served.
	unchecked    // no overlap, infix or class analyses, no class-size threshold
	anyClassSize // no class-size threshold
)

// extended reports whether c takes the exact steps beyond the paper.
func (c Construction) extended() bool { return c == Extended || c > Whole }

// classTooLarge reports whether c refuses an almost-dot-star or classed
// bounded gap over x for the §IV-B class-size threshold.
func (c Construction) classTooLarge(x regexparse.Class) bool {
	return x.Count() >= maxClassSize && c != unchecked && c != anyClassSize
}

// Options configures the splitter.
type Options struct {
	Construction Construction
	// Deprecated: X{n,m} counters are part of the Extended construction;
	// the field is ignored.
	EnableCounters bool
}

// Stats counts what the splitter did, for construction reports.
type Stats struct {
	RulesTotal      int
	RulesDecomposed int
	DotStarSplits   int
	AlmostSplits    int
	CountingSplits  int
	PositionSplits  int // overlapping dot-stars split on a position register instead of refused
	// AlmostPositionSplits are the almost-dot-stars split on an open-window
	// counter, one each, instead of refused for overlap, infix or X final
	// in A. Those three refusals count what stays refused: every such
	// separator under the Paper constructions, none under Extended.
	AlmostPositionSplits int
	RefusedOverlap       int
	RefusedInfix         int
	RefusedClassSize     int
	RefusedXInB          int
	RefusedXFinalInA     int
	RefusedCascade       int // rejected because a separator to the right was refused
	RefusedStructural    int // no top-level concat / empty segment / a left segment that can match empty
	RefusedVarLength     int // counting gap or overlapping separator whose trailing segment has variable length
	CounterSplits        int // bounded gaps compiled to counter registers
	RefusedCounterXInB   int // classed bounded gap whose forbidden class occurs in B
	RefusedCounterSpan   int // bounded gap whose window exceeds filter.MaxCounterGap (or counter budget)
}

// Result is the splitter output: the fragment set for DFA construction,
// the per-internal-id filter actions, and the memory width w.
type Result struct {
	Fragments []Fragment
	Actions   []filter.Action // indexed by internal id; entry 0 reserved
	MemBits   int
	// NumRegs is the number of position registers allocated: one per
	// position-checked dot-star and per .{n,} gap.
	NumRegs int
	// ClearGroups lists, per shared gap fragment, the guard bits its
	// match clears. Rules with an identical almost-dot-star gap class
	// share a single [X] fragment (the §IV-C action merging), so one gap
	// byte costs one filter event regardless of how many rules watch it.
	ClearGroups [][]int16
	// Counters are the counter-register descriptors (1-based from the
	// Actions' point of view): one per bounded gap the extension split, and
	// one with an open window per position-checked almost-dot-star.
	Counters []filter.Counter
	Stats    Stats
}

// Program builds the filter program corresponding to the result.
func (r *Result) Program() *filter.Program {
	p := filter.NewProgramRegs(len(r.Actions), maxInt(r.MemBits, 1), r.NumRegs)
	for _, bits := range r.ClearGroups {
		p.AddClearGroup(bits)
	}
	for _, c := range r.Counters {
		p.AddCounter(c.MinGap, c.MaxGap)
	}
	for id := 1; id < len(r.Actions); id++ {
		p.SetAction(int32(id), r.Actions[id])
	}
	return p
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// separatorKind classifies a top-level concat element.
type separatorKind int

const (
	notSeparator separatorKind = iota
	dotStarSep
	almostSep
	countSep
	positionSep // a dot-star whose segments overlap: countSep with n = 0
	boundedSep
	openSep // an almost-dot-star whose segments overlap: classed boundedSep with n = 0 and no m
)

// refusal names why a separator was not split.
type refusal int

const (
	accepted      refusal = iota
	notSplittable         // classify found no separator, and counted why if there is a why
	refusedOverlap
	refusedInfix
	refusedXInB
	refusedXFinalInA
	refusedVarLength
	refusedCounterSpan
	refusedCounterXInB
	refusedEmptyHead
)

// refuse counts one refused separator under its reason.
func (s *Stats) refuse(why refusal) {
	switch why {
	case refusedOverlap:
		s.RefusedOverlap++
	case refusedInfix:
		s.RefusedInfix++
	case refusedXInB:
		s.RefusedXInB++
	case refusedXFinalInA:
		s.RefusedXFinalInA++
	case refusedVarLength:
		s.RefusedVarLength++
	case refusedCounterSpan:
		s.RefusedCounterSpan++
	case refusedCounterXInB:
		s.RefusedCounterXInB++
	case refusedEmptyHead:
		s.RefusedStructural++
	}
}

// splitState carries the per-rule-set state of Algorithm 1's RegexSplit.
type splitState struct {
	c       Construction
	nextID  int32
	nextBit int16
	nextReg int16 // position registers are 1-based; 0 is filter.NoReg
	result  *Result

	// Gap-clear registry: almost-dot-star guard bits grouped by their
	// gap class X, emitted as one shared [X] fragment per class after
	// all rules are split.
	gapBits  map[regexparse.Class][]int16
	gapOrder []regexparse.Class
}

// Split runs Algorithm 1 over the rule set.
func Split(rules []Rule, opts Options) (*Result, error) {
	st := &splitState{
		c:      opts.Construction,
		nextID: 1,
		result: &Result{
			Actions: []filter.Action{filter.DropAction}, // reserved id 0
		},
		gapBits: make(map[regexparse.Class][]int16),
	}
	st.result.Stats.RulesTotal = len(rules)
	for _, r := range rules {
		if r.RuleID <= 0 {
			return nil, fmt.Errorf("splitter: rule id %d must be positive", r.RuleID)
		}
		if err := st.splitRule(r); err != nil {
			return nil, fmt.Errorf("splitter: rule %d (%s): %w", r.RuleID, r.Pattern.Source, err)
		}
	}
	st.emitGapFragments()
	st.result.MemBits = int(st.nextBit)
	st.result.NumRegs = int(st.nextReg)
	return st.result, nil
}

// addGapClear registers bit to be cleared whenever a byte of class x
// occurs.
func (st *splitState) addGapClear(x regexparse.Class, bit int16) {
	if _, seen := st.gapBits[x]; !seen {
		st.gapOrder = append(st.gapOrder, x)
	}
	st.gapBits[x] = append(st.gapBits[x], bit)
}

// emitGapFragments appends one shared [X] fragment per distinct gap
// class, in first-use order, with a merged multi-bit clear action.
func (st *splitState) emitGapFragments() {
	for _, x := range st.gapOrder {
		group := int32(len(st.result.ClearGroups) + 1)
		st.result.ClearGroups = append(st.result.ClearGroups, st.gapBits[x])
		id := st.allocID(filter.Action{
			Test: filter.NoBit, Set: filter.NoBit, Clear: filter.NoBit,
			Report: filter.NoReport, ClearGroup: group,
		})
		st.result.Fragments = append(st.result.Fragments, Fragment{
			Pattern: &regexparse.Pattern{
				Root:   regexparse.NewClassNode(x),
				Source: regexparse.NewClassNode(x).String(),
			},
			InternalID: id,
		})
	}
}

// allocID reserves the next internal match id and installs its action.
func (st *splitState) allocID(a filter.Action) int32 {
	id := st.nextID
	st.nextID++
	st.result.Actions = append(st.result.Actions, a)
	return id
}

// allocBit reserves the next memory bit.
func (st *splitState) allocBit() int16 {
	b := st.nextBit
	st.nextBit++
	return b
}

// allocReg reserves the next position register (1-based).
func (st *splitState) allocReg() int16 {
	st.nextReg++
	return st.nextReg
}

// allocCtr reserves the next counter register (1-based) with the given
// witness window.
func (st *splitState) allocCtr(minGap, maxGap int32) int16 {
	st.result.Counters = append(st.result.Counters, filter.Counter{MinGap: minGap, MaxGap: maxGap})
	return int16(len(st.result.Counters))
}

// boundedSepInfo reports whether a node qualifies as a bounded-gap
// separator under the construction: a BoundedGap shape whose upper bound
// reaches the counter threshold and whose forbidden class (if any) is
// below the class-size threshold. Returning false here merges the node
// into the adjacent segments for duplication expansion, which stays
// correct — counters only ever trade states for filter work.
func (st *splitState) boundedSepInfo(n *regexparse.Node) (x regexparse.Class, minGap, maxGap int, ok bool) {
	if !st.c.extended() {
		return regexparse.Class{}, 0, 0, false
	}
	minGap, maxGap, x, full, ok := n.BoundedGap()
	if !ok || maxGap < counterThreshold {
		return regexparse.Class{}, 0, 0, false
	}
	if !full && st.c.classTooLarge(x) {
		// Not counted in RefusedClassSize: this helper runs once per node
		// per phase (shape detection, trimming, classification) and would
		// multi-count; an over-threshold class simply keeps the node out
		// of separator position.
		return regexparse.Class{}, 0, 0, false
	}
	return x, minGap, maxGap, true
}

// emit appends a fragment reporting the given internal id. anchored
// applies only to the first fragment of an anchored rule: later fragments
// search the whole flow, and their guard bits — set only after the
// anchored head matched — enforce the ordering.
func (st *splitState) emit(r Rule, node *regexparse.Node, id int32, anchored bool) {
	st.result.Fragments = append(st.result.Fragments, Fragment{
		Pattern: &regexparse.Pattern{
			Root:            node,
			Anchored:        anchored,
			CaseInsensitive: r.Pattern.CaseInsensitive,
			Source:          r.Pattern.Source,
		},
		InternalID: id,
		RuleID:     r.RuleID,
	})
}

// splitRule decomposes one rule.
//
// Soundness requires more than the paper's left-to-right sketch: every
// fragment that *tests* a guard bit must be a single gap-free segment —
// a tester retaining an internal .* could satisfy its guard with content
// preceding the guard segment. So acceptance runs right to left: the
// longest suffix of separators whose pairwise safety checks all pass is
// split; everything to the left of the first failure merges into the
// initial (pure-setter or unsplit) fragment, where internal gaps are
// harmless.
func (st *splitState) splitRule(r Rule) error {
	segments, seps, ok := st.topLevelSegments(r.Pattern)
	if !ok || len(seps) == 0 {
		// Nothing to decompose: a single fragment whose match confirms
		// unconditionally.
		if !ok {
			st.result.Stats.RefusedStructural++
		}
		id := st.allocID(filter.Action{
			Test: filter.NoBit, Set: filter.NoBit, Clear: filter.NoBit, Report: r.RuleID,
		})
		st.emit(r, r.Pattern.Root, id, r.Pattern.Anchored)
		return nil
	}

	// Phase 1 (right to left): find the smallest k such that separators
	// k..len(seps)-1 all pass their safety checks against their adjacent
	// segments. A failure at i rejects every separator ≤ i as well,
	// because a refused gap may only live in the leftmost fragment.
	kinds := make([]separatorKind, len(seps))
	xs := make([]regexparse.Class, len(seps))
	gaps := make([]int, len(seps)) // minimum gap for countSep/boundedSep entries
	maxs := make([]int, len(seps)) // maximum gap for boundedSep entries
	auts := &automata{nodes: segments, built: make([]*segment, len(segments))}
	k := 0
	for i := len(seps) - 1; i >= 0; i-- {
		kind, x, minGap, maxGap := st.classify(seps[i])
		kind, why, err := st.admit(kind, x, maxGap, auts, i, len(seps))
		if err != nil {
			return err
		}
		if why != accepted {
			st.result.Stats.refuse(why)
			k = i + 1
			st.result.Stats.RefusedCascade += i
			break
		}
		kinds[i], xs[i], gaps[i], maxs[i] = kind, x, minGap, maxGap
	}

	// Phase 2 (left to right): merge segments[0..k] and seps[0..k-1] into
	// the initial fragment, then emit one fragment per accepted split with
	// guard-bit chaining.
	head := make([]*regexparse.Node, 0, 2*k+1)
	for i := 0; i < k; i++ {
		head = append(head, segments[i], seps[i])
	}
	pending := regexparse.NewConcat(append(head, segments[k])...)

	if k == len(seps) {
		// Every separator was refused: the rule stays whole.
		id := st.allocID(filter.Action{
			Test: filter.NoBit, Set: filter.NoBit, Clear: filter.NoBit, Report: r.RuleID,
		})
		st.emit(r, pending, id, r.Pattern.Anchored)
		return nil
	}

	// Only the head fragment of an anchored rule keeps the anchor: a later
	// fragment firing in a flow whose head never matched finds its
	// condition unmet (DESIGN.md §7).
	//
	// cond is the chaining condition a fragment must satisfy before its
	// own effect fires: a guard bit for dot-star/almost-dot-star links, a
	// register gap test for counting links.
	cond := filter.Action{Test: filter.NoBit, GapReg: filter.NoReg}
	for i := k; i < len(seps); i++ {
		act := filter.Action{
			Test: cond.Test, GapReg: cond.GapReg, MinGap: cond.MinGap,
			TestCtr: cond.TestCtr,
			Set:     filter.NoBit, Clear: filter.NoBit, Report: filter.NoReport,
		}
		switch kinds[i] {
		case countSep, positionSep:
			reg := st.allocReg()
			act.SetPos = reg
			lenB, _ := segments[i+1].FixedLength()
			cond = filter.Action{Test: filter.NoBit, GapReg: reg, MinGap: int32(gaps[i] + lenB)}
			if kinds[i] == positionSep {
				st.result.Stats.PositionSplits++
			} else {
				st.result.Stats.CountingSplits++
			}
		case boundedSep, openSep:
			lenB, _ := segments[i+1].FixedLength()
			maxGap := int32(maxs[i] + lenB)
			if kinds[i] == openSep {
				maxGap = filter.OpenGap
			}
			ctr := st.allocCtr(int32(gaps[i]+lenB), maxGap)
			act.SetCtr = ctr
			if xs[i].Count() != 0 {
				// Classed gap: a shared-per-counter [X] fragment kills
				// every witness whose gap would contain the forbidden
				// byte. The reset is anchor-independent — an X byte
				// invalidates outstanding witnesses whether or not the
				// rule's head ever matched — so the fragment is always
				// emitted unanchored. Its id is below the recording
				// fragment's: a byte that both belongs to X and ends A
				// resets first and records second, which an open counter,
				// keeping its first witness, depends on.
				resetID := st.allocID(filter.Action{
					Test: filter.NoBit, Set: filter.NoBit, Clear: filter.NoBit,
					Report: filter.NoReport, ResetCtr: ctr,
				})
				st.emit(r, regexparse.NewClassNode(xs[i]), resetID, false)
			}
			cond = filter.Action{Test: filter.NoBit, TestCtr: ctr}
			if kinds[i] == openSep {
				st.result.Stats.AlmostPositionSplits++
			} else {
				st.result.Stats.CounterSplits++
			}
		default:
			bit := st.allocBit()
			act.Set = bit
			cond = filter.Action{Test: bit, GapReg: filter.NoReg}
			if kinds[i] == almostSep {
				// The shared gap fragment [X] (emitted once per class
				// after all rules) clears the bit on every occurrence
				// of a byte from X.
				st.addGapClear(xs[i], bit)
				st.result.Stats.AlmostSplits++
			} else {
				st.result.Stats.DotStarSplits++
			}
		}
		st.emit(r, pending, st.allocID(act), i == k && r.Pattern.Anchored)
		pending = segments[i+1]
	}

	finalID := st.allocID(filter.Action{
		Test: cond.Test, GapReg: cond.GapReg, MinGap: cond.MinGap,
		TestCtr: cond.TestCtr,
		Set:     filter.NoBit, Clear: filter.NoBit, Report: r.RuleID,
	})
	st.emit(r, pending, finalID, false)
	st.result.Stats.RulesDecomposed++
	return nil
}

// classify decides whether a top-level node is a decomposition separator,
// returning the negated class X for almost-dot-star and classed bounded
// gaps, and the gap bounds for counting and bounded separators.
func (st *splitState) classify(sep *regexparse.Node) (separatorKind, regexparse.Class, int, int) {
	if sep.IsDotStar() {
		if st.c == Whole {
			return notSeparator, regexparse.Class{}, 0, 0
		}
		return dotStarSep, regexparse.Class{}, 0, 0
	}
	if x, ok := sep.NegatedClassStar(); ok {
		if st.c == Whole || st.c == PaperDotStar {
			return notSeparator, regexparse.Class{}, 0, 0
		}
		if st.c.classTooLarge(x) {
			st.result.Stats.RefusedClassSize++
			return notSeparator, regexparse.Class{}, 0, 0
		}
		return almostSep, x, 0, 0
	}
	if minGap, ok := sep.CountGap(); ok && st.c.extended() {
		return countSep, regexparse.Class{}, minGap, 0
	}
	if x, minGap, maxGap, ok := st.boundedSepInfo(sep); ok {
		return boundedSep, x, minGap, maxGap
	}
	return notSeparator, regexparse.Class{}, 0, 0
}

// admit decides whether the separator between adjacent segments a = i
// and b = i+1 may be split, and how: it returns the kind to split with — a
// dot-star that fails the overlap conditions becomes a positionSep, an
// almost-dot-star that does, or whose A can end in X, an openSep — or the
// reason the separator is refused.
func (st *splitState) admit(kind separatorKind, x regexparse.Class, maxGap int, auts *automata, i, numSeps int) (separatorKind, refusal, error) {
	if kind == notSeparator {
		return kind, notSplittable, nil
	}
	a, b := auts.nodes[i], auts.nodes[i+1]
	// Every split, bit or register, needs each end of A to be a position
	// its fragment fires at, and fragments fire only after a byte. An A that
	// matches the empty string also ends before byte 0 — and, mid-chain,
	// where its own condition was met by the byte that confirms B. Not
	// skippable: there is no event to reason about.
	if a.MatchesEmpty() {
		return kind, refusedEmptyHead, nil
	}
	switch kind {
	case dotStarSep, almostSep:
		if st.c == unchecked {
			return kind, accepted, nil
		}
		why, err := checkSafety(kind, x, auts, i)
		if err != nil || why == accepted {
			return kind, why, err
		}
		// A guard bit cannot say where A ended relative to B; a recorded
		// position can. The gap test below is overlap-safe for any A whose
		// ends are all observable (above), as long as B's start is
		// recoverable from its end. For an almost-dot-star the record is
		// reset by X bytes — A's earliest end since the last one — and a
		// reset ordered ahead of the record takes an A that ends in X too.
		// X occurring in B is the one condition that is not about where A
		// ended.
		if !st.c.extended() || why == refusedXInB {
			return kind, why, nil
		}
		if kind == dotStarSep {
			kind = positionSep
		} else {
			kind = openSep
		}
	}

	// The gap test recovers the trailing fragment's start from its end,
	// which needs a fixed match length. This condition is not skippable:
	// without it the filter arithmetic is simply undefined. A zero-length
	// trailing segment behind a gap that may be empty would test and
	// record at the same position; refuse rather than reason about event
	// ordering.
	lenB, fixed := b.FixedLength()
	if !fixed || (lenB < 1 && kind != countSep) {
		return kind, refusedVarLength, nil
	}
	if kind != boundedSep && kind != openSep {
		return kind, accepted, nil
	}
	if maxGap+lenB > filter.MaxCounterGap || len(st.result.Counters) >= filter.MaxCounters-numSeps {
		return kind, refusedCounterSpan, nil
	}
	if x.Count() != 0 {
		// A classed gap [^X]{n,m} or [^X]* is invalidated by X bytes via
		// reset events; X occurring inside B would fire a reset mid-B and
		// kill a still-valid witness, so this condition (like fixed length)
		// is not skippable. checkSafety stops at the first condition that
		// fails, so an openSep has not necessarily been through it.
		sb, err := auts.get(i + 1)
		if err != nil || classAppearsIn(x, sb) {
			if kind == openSep {
				return kind, refusedXInB, err
			}
			return kind, refusedCounterXInB, err
		}
	}
	return kind, accepted, nil
}

// checkSafety applies the guard-bit validity conditions to a candidate
// split between adjacent segments a = i and b = i+1 and names the first
// that fails: the paper's suffix/prefix condition, the infix condition its
// rationale implies (see infixOverlap), and for almost-dot-star the two
// class conditions of §IV-B.
func checkSafety(kind separatorKind, x regexparse.Class, auts *automata, i int) (refusal, error) {
	a, err := auts.get(i)
	if err != nil {
		return refusedOverlap, err
	}
	b, err := auts.get(i + 1)
	switch {
	case err != nil || suffixPrefixOverlap(a, b):
		return refusedOverlap, err
	case infixOverlap(a, b):
		return refusedInfix, nil
	case kind == almostSep && classAppearsIn(x, b):
		return refusedXInB, nil
	case kind == almostSep && classInFinalPosition(x, a):
		return refusedXFinalInA, nil
	}
	return accepted, nil
}

// topLevelSegments decomposes the pattern's root into alternating segments
// and separators: seg[0] sep[0] seg[1] sep[1] ... seg[n]. Leading
// separators of unanchored patterns are redundant with the implicit .*
// search prefix and are dropped; a separator with an empty segment on
// either side is merged into its neighbour. A pattern without a separator
// yields no segments, and one that is nothing but separators ok=false:
// either way the rule is kept whole.
func (st *splitState) topLevelSegments(p *regexparse.Pattern) (segments []*regexparse.Node, seps []*regexparse.Node, ok bool) {
	root := p.Root
	if root.Op != regexparse.OpConcat {
		if st.isSeparatorShape(root) {
			// The whole pattern is .*-like; nothing to split.
			return nil, nil, false
		}
		return nil, nil, true
	}

	subs := root.Subs
	// Drop redundant leading dot-star of an unanchored rule: ".*A..." and
	// "A..." search identically. (A leading [^X]* is equally redundant:
	// the gap may be empty — but a leading .{n,} is NOT: it demands n
	// bytes before the next segment, so it is never trimmed.)
	if !p.Anchored {
		for len(subs) > 0 && st.isTrimmableLeading(subs[0]) {
			subs = subs[1:]
		}
	}
	if len(subs) == 0 {
		return nil, nil, false
	}

	lo := 0 // the current segment is subs[lo:i]
	for i, sub := range subs {
		if !st.isSeparatorShape(sub) {
			continue
		}
		if i == lo {
			// Empty segment before a separator (e.g. ".*.*A" after
			// trimming, or an anchored "^.*A"): merge the separator into
			// the segment instead of splitting.
			continue
		}
		segments = append(segments, regexparse.NewConcat(subs[lo:i]...))
		seps = append(seps, sub)
		lo = i + 1
	}
	switch {
	case len(seps) == 0:
		return nil, nil, true
	case lo < len(subs):
		segments = append(segments, regexparse.NewConcat(subs[lo:]...))
	default:
		// Trailing separator: "A.*" — fold it back into the last segment,
		// since an empty right side cannot be split off.
		last := len(seps) - 1
		segments[last] = regexparse.NewConcat(segments[last], seps[last])
		seps = seps[:last]
	}
	return segments, seps, true
}

// isSeparatorShape reports whether a node looks like a separator, before
// any threshold or safety filtering: .* or [^X]* always, and .{n,} or a
// wide enough X{n,m} under the Extended construction.
func (st *splitState) isSeparatorShape(n *regexparse.Node) bool {
	if n.IsDotStar() {
		return true
	}
	if _, ok := n.NegatedClassStar(); ok {
		return true
	}
	if _, ok := n.CountGap(); ok && st.c.extended() {
		return true
	}
	_, _, _, ok := st.boundedSepInfo(n)
	return ok
}

// isTrimmableLeading reports whether a leading top-level node of an
// unanchored rule is redundant with the implicit search prefix: .* and
// [^X]* gaps may be empty, so dropping them changes nothing — as may a
// bounded gap X{0,m} when the counter extension would otherwise split on
// it. A counting gap .{n,} or a bounded gap with n >= 1 is not trimmable —
// it demands bytes before the next segment.
func (st *splitState) isTrimmableLeading(n *regexparse.Node) bool {
	if n.IsDotStar() {
		return true
	}
	if _, ok := n.NegatedClassStar(); ok {
		return true
	}
	if _, minGap, _, ok := st.boundedSepInfo(n); ok && minGap == 0 {
		return true
	}
	return false
}
