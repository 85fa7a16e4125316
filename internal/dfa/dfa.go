// Package dfa implements subset construction from an NFA into a
// transition-table deterministic automaton with multi-match decision sets
// (the Dq: Q → 2^Di component of the paper's 9-tuple), plus a fast
// matching engine and an optional minimization pass.
//
// Three table layouts are supported, selected by Options.Layout:
//
//   - Flat: a single []uint32 indexed by state*256+byte, so advancing
//     the automaton is one load per input byte.
//   - Classed (the default via LayoutAuto): a 256-byte equivalence-class
//     map plus a numStates×numClasses table indexed by
//     state*numClasses+classOf[byte] — two dependent loads per byte, but
//     a table typically 5–20× smaller that stays cache-resident as state
//     counts grow. See classes.go.
//   - Classed2 (explicit opt-in): the classed layout plus a
//     numStates×numClasses² pair table encoding δ², so the loop-carried
//     dependency chain is one table load per two input bytes, with a
//     1-byte tail step at chunk boundaries. See pairtable.go.
//
// Layout-independence invariant: every layout encodes the identical
// successor function and produces byte-for-byte identical (id, pos)
// match streams; only memory footprint and load pattern differ. All
// APIs that cross the package boundary — Next, Runner.State/SetState,
// Matches, and the wire format — speak plain state numbers, never
// layout-internal scaled row bases, so a context saved from a flat
// engine restores into a classed or classed2 one built from the same
// NFA (and vice versa), and contexts can never encode a position inside
// a classed2 byte pair. In every layout states are renumbered so that
// all accepting states form a contiguous tail, making the per-byte "did
// we match" test a single integer compare.
//
// Concurrency: a *DFA and the Engine wrapping it are immutable after
// construction and safe for unlimited concurrent readers. All mutable
// scan state lives in Runner, which serves exactly one flow at a time.
package dfa

import (
	"errors"
	"fmt"
	"slices"

	"matchfilter/internal/nfa"
	"matchfilter/internal/regexparse"
)

// DefaultMaxStates is the construction budget used when Options.MaxStates
// is zero. During construction a state costs its residue (a few NFA
// state ids for decomposed sets) and one row of 4 bytes per alphabet
// class; only a flat-layout result pays 1 KiB of table per state, which
// the default bounds at 128 MiB. That is comfortably above every
// constructible pattern set shipped in internal/patterns, and exceeded
// (by design) by the B217p-style sets.
const DefaultMaxStates = 1 << 17

// ErrTooManyStates is returned (wrapped) when subset construction exceeds
// the state budget; the paper's Table V reports exactly this outcome for
// B217p ("could not be constructed as a DFA").
var ErrTooManyStates = errors.New("dfa: state budget exceeded")

// Options configures construction.
type Options struct {
	// MaxStates caps subset construction; 0 means DefaultMaxStates.
	MaxStates int
	// Minimize runs a Moore partition-refinement pass after construction.
	// Distinct match-id sets are kept distinguishable, so minimization
	// never merges states that report different matches.
	Minimize bool
	// Layout selects the transition-table representation. The zero value
	// (LayoutAuto) applies byte-class compression whenever it shrinks the
	// table at least 2×; LayoutFlat forces the paper's one-load-per-byte
	// table and exists so baselines and equivalence tests can compare the
	// two layouts on identical automata.
	Layout Layout
}

// DFA is a deterministic multi-match automaton. It is immutable after
// construction and safe for concurrent use by any number of goroutines;
// per-flow scan state lives in Runner. The slices returned by accessors
// are shared views that callers must treat as read-only.
type DFA struct {
	numStates int
	start     uint32
	// trans is the row-major transition table: numStates*256 for the
	// flat layout, numStates*numClasses for the classed layout. Classed
	// entries are pre-scaled row bases (next*numClasses, see classes.go);
	// flat entries are plain state numbers.
	trans []uint32
	// numClasses is the row stride: 256 for flat, the byte
	// equivalence-class count for classed.
	numClasses int
	// classOf maps each input byte to its equivalence class; nil marks
	// the flat layout (the discriminant every hot loop branches on once
	// per Feed call, never per byte).
	classOf []uint8
	// trans2 is the optional 2-byte-stride pair table
	// (numStates×numClasses², entries are pre-scaled pair-row bases,
	// possibly carrying pairAcceptFlag — see pairtable.go); nil unless
	// the layout is classed2. When present, trans and classOf are also
	// kept for the odd-byte tail and mid-pair accept paths.
	trans2 []uint32
	// stride2 is the pair-table row stride numClasses²; 0 unless classed2.
	stride2     int
	acceptStart uint32    // states >= acceptStart are accepting
	accepts     [][]int32 // match ids for states >= acceptStart, indexed by state-acceptStart
}

// FromNFA runs subset construction on n. Construction and minimization
// work on class-width rows (one column per NFA byte class, see
// constructor); the requested layout is applied as a final repacking
// step, so layout choice can never change the automaton's language or
// decision sets.
func FromNFA(n *nfa.NFA, opts Options) (*DFA, error) {
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}

	c := newConstructor(n, maxStates)
	if err := c.run(); err != nil {
		return nil, err
	}
	d := c.finish()
	if opts.Minimize {
		d = d.minimize()
	}
	return d.applyLayout(opts.Layout), nil
}

// constructor holds the working state of subset construction. It works
// per NFA byte class instead of per byte, and per residue instead of per
// closure (DESIGN.md "Subset construction"):
//
//   - The alphabet is partitioned once by the distinct class bitmaps on
//     NFA transitions. Classes are ordered by smallest member byte, so
//     walking them in order discovers successor states in the order a
//     byte-by-byte walk would, and state numbering is the same.
//   - The invariant core C is the greatest set of NFA states with
//     C ⊆ succ(start, k) and C ⊆ succ(C, k) for every class k (succ being
//     the ε-closed successor set). By induction every DFA state other
//     than the start contains C, so a state is stored and interned as
//     its residue closure \ C, and C's own successors and match ids are
//     computed once per class instead of once per state and byte.
//     Anchored-only rule sets have C = ∅ and residue = closure.
type constructor struct {
	n         *nfa.NFA
	maxStates int
	closures  [][]nfa.StateID // ε-closure of each NFA state

	classOf []uint8 // byte → alphabet class
	rep     []byte  // smallest byte of each class

	inCore      []bool          // membership in C
	coreSucc    [][]nfa.StateID // per class: succ(C, k) \ C, sorted
	coreMatches []int32         // match ids of C, sorted
	// startFull marks state 0 as holding the whole start closure because
	// it does not contain C. No other state can equal it, so it is never
	// interned.
	startFull bool

	// DFA states in discovery order, which is also exploration order.
	// State i is C ∪ arena[off[i]:off[i+1]] (state 0 without C when
	// startFull).
	arena   []nfa.StateID
	off     []uint32
	accepts [][]int32         // per state: sorted match ids (nil if none)
	byHash  map[uint64]uint32 // residue hash → newest state with it, +1
	chain   []uint32          // per state: older state with the same hash, +1
	rows    []uint32          // per explored state: len(rep) targets
}

func newConstructor(n *nfa.NFA, maxStates int) *constructor {
	c := &constructor{
		n:         n,
		maxStates: maxStates,
		closures:  n.Closures(),
		inCore:    make([]bool, n.NumStates()),
		off:       []uint32{0},
		byHash:    make(map[uint64]uint32, 1024),
	}
	// One 0/1 membership row per distinct transition bitmap: two bytes
	// are in the same class iff they agree on every row.
	distinct := make(map[regexparse.Class]bool)
	var member []uint32
	for i := range n.States {
		for _, t := range n.States[i].Trans {
			if distinct[t.Class] {
				continue
			}
			distinct[t.Class] = true
			for b := 0; b < regexparse.AlphabetSize; b++ {
				member = append(member, uint32(t.Class[b>>6]>>(b&63))&1)
			}
		}
	}
	var k int
	c.classOf, k = computeClasses(member, regexparse.AlphabetSize)
	c.rep = make([]byte, k)
	for b := regexparse.AlphabetSize - 1; b >= 0; b-- {
		c.rep[c.classOf[b]] = byte(b)
	}
	return c
}

// succ appends to dst the ε-closed successors of set on byte b that lie
// outside the core, then sorts and deduplicates dst.
func (c *constructor) succ(dst, set []nfa.StateID, b byte) []nfa.StateID {
	for _, s := range set {
		for _, t := range c.n.States[s].Trans {
			if !t.Class.Contains(b) {
				continue
			}
			for _, q := range c.closures[t.To] {
				if !c.inCore[q] {
					dst = append(dst, q)
				}
			}
		}
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// findCore computes the invariant core from the start closure, fills
// inCore, coreSucc and coreMatches, and returns the core's size.
func (c *constructor) findCore(start []nfa.StateID) int {
	// C starts as ∩ₖ succ(start, k) and shrinks until C ⊆ succ(C, k) for
	// every k. Each step is monotone, so the fixed point is the greatest.
	var core, buf []nfa.StateID
	for k, b := range c.rep {
		buf = c.succ(buf[:0], start, b)
		if k == 0 {
			core = slices.Clone(buf)
		} else {
			core = intersect(core, buf)
		}
	}
	for shrunk := len(core) > 0; shrunk; {
		shrunk = false
		for _, b := range c.rep {
			buf = c.succ(buf[:0], core, b)
			if kept := intersect(core, buf); len(kept) < len(core) {
				core, shrunk = kept, true
			}
		}
	}
	for _, s := range core {
		c.inCore[s] = true
	}
	c.coreSucc = make([][]nfa.StateID, len(c.rep))
	for k, b := range c.rep {
		c.coreSucc[k] = c.succ(nil, core, b)
	}
	c.coreMatches = c.matchSet(core, nil)
	return len(core)
}

// intersect filters sorted a down to its members also in sorted b, in
// place.
func intersect(a, b []nfa.StateID) []nfa.StateID {
	out := a[:0]
	for _, s := range a {
		if _, ok := slices.BinarySearch(b, s); ok {
			out = append(out, s)
		}
	}
	return out
}

// add appends a new DFA state with the given stored set and match ids.
func (c *constructor) add(set []nfa.StateID, matches []int32) (uint32, error) {
	if len(c.accepts) >= c.maxStates {
		return 0, fmt.Errorf("%w: more than %d states", ErrTooManyStates, c.maxStates)
	}
	c.arena = append(c.arena, set...)
	c.off = append(c.off, uint32(len(c.arena)))
	c.accepts = append(c.accepts, matches)
	c.chain = append(c.chain, 0)
	return uint32(len(c.accepts) - 1), nil
}

// intern returns the DFA state C ∪ residue, creating it if new.
func (c *constructor) intern(residue []nfa.StateID) (uint32, error) {
	h := uint64(len(residue))
	for _, s := range residue {
		h = (h ^ uint64(uint32(s))) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	for p := c.byHash[h]; p != 0; p = c.chain[p-1] {
		if slices.Equal(c.arena[c.off[p-1]:c.off[p]], residue) {
			return p - 1, nil
		}
	}
	id, err := c.add(residue, c.matchSet(residue, c.coreMatches))
	if err != nil {
		return 0, err
	}
	c.chain[id] = c.byHash[h]
	c.byHash[h] = id + 1
	return id, nil
}

func (c *constructor) run() error {
	start := c.closures[c.n.Start]
	coreSize := c.findCore(start)
	var residue []nfa.StateID
	for _, s := range start {
		if !c.inCore[s] {
			residue = append(residue, s)
		}
	}
	var err error
	if c.startFull = len(start)-len(residue) < coreSize; c.startFull {
		_, err = c.add(start, c.matchSet(start, nil))
	} else {
		_, err = c.intern(residue)
	}
	if err != nil {
		return err
	}

	for cur := 0; cur < len(c.accepts); cur++ {
		set := c.arena[c.off[cur]:c.off[cur+1]]
		withCore := cur > 0 || !c.startFull
		for k, b := range c.rep {
			residue = residue[:0]
			if withCore {
				residue = append(residue, c.coreSucc[k]...)
			}
			residue = c.succ(residue, set, b)
			id, err := c.intern(residue)
			if err != nil {
				return err
			}
			c.rows = append(c.rows, id)
		}
	}
	return nil
}

// finish renumbers states so accepting ones form a contiguous tail and
// packs the rows into a classed table over the constructor's alphabet
// classes. Columns may still be equal; applyLayout takes the quotient.
func (c *constructor) finish() *DFA {
	numStates, k := len(c.accepts), len(c.rep)
	perm, acceptStart := acceptTail(numStates, func(s int) bool { return c.accepts[s] != nil })
	d := &DFA{
		numStates:   numStates,
		start:       perm[0], // state 0 was created first, from the start closure
		trans:       make([]uint32, numStates*k),
		numClasses:  k,
		classOf:     c.classOf,
		acceptStart: acceptStart,
		accepts:     make([][]int32, uint32(numStates)-acceptStart),
	}
	for old := 0; old < numStates; old++ {
		base := int(perm[old]) * k
		for j, to := range c.rows[old*k : (old+1)*k] {
			d.trans[base+j] = perm[to] * uint32(k) // pre-scaled, see classes.go
		}
		if m := c.accepts[old]; m != nil {
			d.accepts[perm[old]-acceptStart] = m
		}
	}
	return d
}

// acceptTail returns the renumbering of n states that moves the accepting
// ones to a contiguous tail, keeping relative order on both sides, and the
// first accepting number.
func acceptTail(n int, accepting func(int) bool) (perm []uint32, acceptStart uint32) {
	perm = make([]uint32, n) // old -> new
	acceptStart = uint32(n)
	for s := 0; s < n; s++ {
		if accepting(s) {
			acceptStart--
		}
	}
	nextPlain, nextAccept := uint32(0), acceptStart
	for s := 0; s < n; s++ {
		if accepting(s) {
			perm[s] = nextAccept
			nextAccept++
		} else {
			perm[s] = nextPlain
			nextPlain++
		}
	}
	return perm, acceptStart
}

// matchSet returns the sorted, deduplicated union of base and the match
// ids of set, or base itself (possibly nil) when set reports none.
func (c *constructor) matchSet(set []nfa.StateID, base []int32) []int32 {
	ids := slices.Clip(base)
	for _, s := range set {
		for _, id := range c.n.States[s].Matches {
			ids = append(ids, int32(id))
		}
	}
	if len(ids) == len(base) {
		return base
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// NumStates returns the number of DFA states, the "DFA Qs" column of
// Table V.
func (d *DFA) NumStates() int { return d.numStates }

// Start returns the initial state.
func (d *DFA) Start() uint32 { return d.start }

// Next returns δ(state, c), resolving the table layout per call. Hot
// loops should not use it; they read the layout once via ScanTable (or
// for the dfa package itself, the specialized loops in Runner.Feed).
func (d *DFA) Next(state uint32, c byte) uint32 {
	if d.classOf == nil {
		return d.trans[int(state)*regexparse.AlphabetSize+int(c)]
	}
	return d.trans[int(state)*d.numClasses+int(d.classOf[c])] / uint32(d.numClasses)
}

// Accepting reports whether a state has a non-empty decision set.
func (d *DFA) Accepting(state uint32) bool { return state >= d.acceptStart }

// Matches returns the decision set Dq(state), nil for non-accepting
// states. The returned slice must not be modified.
func (d *DFA) Matches(state uint32) []int32 {
	if state < d.acceptStart {
		return nil
	}
	return d.accepts[state-d.acceptStart]
}

// TransitionTable returns a flat row-major transition table
// (NumStates×256) regardless of layout: for a flat DFA it is the table
// itself (shared — callers must treat it as read-only), for a classed
// DFA it is a freshly materialized expansion through the class map. The
// HFA and XFA baselines repack it into their own layouts; they compile
// with LayoutFlat so the expansion copy never happens in practice.
func (d *DFA) TransitionTable() []uint32 { return d.flattened() }

// ScanTable returns the hot-loop view of the transition function: the
// raw table, the byte→class map, and the row stride. classOf is nil for
// the flat layout (stride 256, index state*256+b, entries are state
// numbers). For the classed layout the walk runs over pre-scaled row
// bases: st starts at state*stride, steps as st = trans[st+classOf[b]],
// and st/stride recovers the state number (for accept-set indexing and
// context save/restore). All three are shared, read-only views;
// composite engines (the MFA) cache them once and inline the walk.
func (d *DFA) ScanTable() (trans []uint32, classOf []uint8, stride int) {
	return d.trans, d.classOf, d.numClasses
}

// Layout reports the table representation actually applied: LayoutFlat,
// LayoutClassed, or LayoutClassed2 (never LayoutAuto — Auto resolves at
// construction time; a LayoutClassed2 request whose pair table exceeds
// Classed2MaxTableBytes resolves to LayoutClassed).
func (d *DFA) Layout() Layout {
	switch {
	case d.classOf == nil:
		return LayoutFlat
	case d.trans2 != nil:
		return LayoutClassed2
	default:
		return LayoutClassed
	}
}

// NumClasses returns the number of byte equivalence classes, which is
// also the table's row stride: 256 for the flat layout.
func (d *DFA) NumClasses() int { return d.numClasses }

// ClassMap returns the 256-entry byte→class map of a classed DFA, or
// nil for the flat layout. Shared, read-only.
func (d *DFA) ClassMap() []uint8 { return d.classOf }

// TableBytes returns the size of the transition table(s) plus, for the
// classed layouts, the class map — the footprint the layout choice
// trades against scan-loop load count. For classed2 this includes both
// the pair table and the retained 1-byte table.
func (d *DFA) TableBytes() int {
	n := (len(d.trans) + len(d.trans2)) * 4
	if d.classOf != nil {
		n += len(d.classOf)
	}
	return n
}

// PairTable returns the hot-loop view of the classed2 pair table: the
// δ² table and its row stride numClasses². Both are nil/0 unless
// Layout() == LayoutClassed2. Entries are pre-scaled pair-row bases
// (next×stride2), with bit 31 set when the pair's intermediate state is
// accepting; a walk therefore steps st2 = trans2[st2 +
// classOf[b1]*NumClasses + classOf[b2]] and treats any entry ≥
// AcceptStart×stride2 as "consult the 1-byte table for exact match
// offsets" (see pairtable.go). Shared, read-only.
func (d *DFA) PairTable() (trans2 []uint32, stride2 int) {
	return d.trans2, d.stride2
}

// AcceptStart returns the first accepting state id; states in
// [AcceptStart, NumStates) are exactly the accepting states.
func (d *DFA) AcceptStart() uint32 { return d.acceptStart }

// AcceptSets returns the decision sets of the accepting states, indexed
// by state-AcceptStart. Shared, read-only: composite engines use it to
// inline the scan loop without a per-state method call.
func (d *DFA) AcceptSets() [][]int32 { return d.accepts }

// MemoryImageBytes returns the contiguous memory needed for matching:
// the transition table in its actual layout (plus class map), and the
// accept-set arrays with their index.
func (d *DFA) MemoryImageBytes() int {
	total := d.TableBytes()
	total += len(d.accepts) * 8 // offset/length index per accepting state
	for _, m := range d.accepts {
		total += len(m) * 4
	}
	return total
}
