package dfa

import (
	"errors"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"matchfilter/internal/nfa"
	"matchfilter/internal/patterns"
	"matchfilter/internal/regexparse"
)

// fuzzAtoms are the pieces FuzzFromNFA writes rules with: a small
// alphabet, so classes overlap and split it; dot-stars and
// almost-dot-stars, which put states in the core; loops through groups;
// and bounded repeats and alternation, which multiply states.
var fuzzAtoms = []string{"a", "b", "c", "(ab)*", ".*", "[^a]*", "[^\\n]*", "[ab]", "[^c]", "[a-c]{1,3}", "b{2}", "(a|bc)+", "(.|\\n)", "x?", "."}

// fuzzRules turns spec into one to four rules: each byte appends an atom,
// and a byte whose top two bits are set ends the rule. Bit 0 of a rule's
// first byte anchors it.
func fuzzRules(spec []byte) []string {
	var rules []string
	var sb strings.Builder
	for i, b := range spec {
		if sb.Len() == 0 && b&1 == 1 {
			sb.WriteByte('^')
		}
		if b>>6 == 3 || i == len(spec)-1 {
			sb.WriteString(fuzzAtoms[int(b)%len(fuzzAtoms)])
			rules = append(rules, sb.String())
			sb.Reset()
			if len(rules) == 4 {
				break
			}
			continue
		}
		sb.WriteString(fuzzAtoms[int(b>>1)%len(fuzzAtoms)])
	}
	return rules
}

// FuzzFromNFA holds the constructor to the per-byte reference on fuzzed
// rule sets: the same automaton bit for bit under both minimization
// settings, or ErrTooManyStates from both at the same small
// budget. loopStart adds a consuming self-loop on the start state, a
// shape nfa.Build never produces: it can put the start state itself
// inside the core.
func FuzzFromNFA(f *testing.F) {
	f.Add([]byte("\x0a\x11\x06"), false, uint16(200))             // [^a]*[^c][^\n]*
	f.Add([]byte("\x5d\x8e\xc8\x51"), true, uint16(64))           // the start closure holds an accepting core
	f.Add([]byte("\xd4\x95\x82\xab"), false, uint16(100))         // c and ^.[^a]*[^\n]*: the core shrinks over two rounds
	f.Add([]byte("\x0e\x12\xc2\x00\x16\x0d"), false, uint16(300)) // [ab][a-c]{1,3}. and a(a|bc)+x?
	f.Add([]byte("\x13\x14\x14\x14\xd2"), false, uint16(8))       // 24 states over a budget of 9
	f.Add([]byte("\x00\x03"), false, uint16(100))                 // a(ab)*
	f.Fuzz(func(t *testing.T, spec []byte, loopStart bool, budget uint16) {
		if len(spec) == 0 || len(spec) > 24 {
			return
		}
		rules := fuzzRules(spec)
		direct := make([]nfa.Rule, len(rules))
		for i, src := range rules {
			p, err := regexparse.ParsePCRE(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			direct[i] = nfa.Rule{Pattern: p, MatchID: i + 1}
		}
		n, err := nfa.Build(direct)
		if err != nil {
			return // a bounded repeat over the expansion cap
		}
		if loopStart {
			s := &n.States[n.Start]
			s.Trans = append(s.Trans, nfa.Transition{Class: regexparse.AnyClass(), To: n.Start})
		}
		assertSameAsReference(t, strings.Join(rules, " ; "), n, 1+int(budget)%400)
	})
}

// BenchmarkFromNFAUndecomposed times the constructor where it does the
// most work: a pattern set built whole, without decomposition (C10,
// 14,689 states), and a refusal at the state budget (B217p whole against
// 2^14 states, where the reference needed 58 s to give up). The refusal
// reports the budget as its states.
func BenchmarkFromNFAUndecomposed(b *testing.B) {
	for _, bc := range []struct {
		name   string
		set    string
		budget int
	}{
		{"C10", "C10", 0},
		{"B217p-refused", "B217p", 1 << 14},
	} {
		loaded, err := patterns.Load(bc.set)
		if err != nil {
			b.Fatal(err)
		}
		rules := make([]nfa.Rule, len(loaded))
		for i, r := range loaded {
			rules[i] = nfa.Rule{Pattern: r.Pattern, MatchID: int(r.ID)}
		}
		n := mustBuild(b, rules)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := FromNFA(n, Options{MaxStates: bc.budget})
				switch {
				case bc.budget > 0 && errors.Is(err, ErrTooManyStates):
					b.ReportMetric(float64(bc.budget), "states")
				case bc.budget == 0 && err == nil:
					b.ReportMetric(float64(d.NumStates()), "states")
				default:
					b.Fatalf("budget %d: %v", bc.budget, err)
				}
			}
		})
	}
}

// TestInternIgnoresOrder checks that a residue is keyed as a set: every
// stored residue of a constructed automaton, its own states reversed,
// interns to the state that holds it; and so does one that holds a part
// when its part and own states are given together as the own states of
// the empty part, which intern decides by the part's states too.
func TestInternIgnoresOrder(t *testing.T) {
	n := buildNFA(t, "ab.*cd", "x[^y]*z", "a.*b.*c", "^q[a-c]{2}r")
	c := newConstructor(n, DefaultMaxStates)
	if err := c.run(); err != nil {
		t.Fatal(err)
	}
	states, checked, merged := len(c.accepts), 0, 0
	for i := range states {
		if i == 0 && c.startFull {
			continue // never interned
		}
		own := c.arena[c.off[i]:c.off[i+1]]
		if p := c.part[i]; p != 0 {
			set := append(slices.Clone(c.parts[p].states), own...)
			slices.Reverse(set)
			if id, err := c.internFresh(0, set); err != nil || id != uint32(i) {
				t.Fatalf("state %d without its part %d: got %d, %v", i, p, id, err)
			}
			merged++
		}
		set := slices.Clone(own)
		if len(set) < 2 {
			continue
		}
		slices.Reverse(set)
		if id, err := c.internFresh(c.part[i], set); err != nil || id != uint32(i) {
			t.Fatalf("state %d reversed: got %d, %v", i, id, err)
		}
		checked++
	}
	if len(c.accepts) != states || checked < 10 || merged < 10 {
		t.Fatalf("%d states became %d; %d residues reversed, %d without their part", states, len(c.accepts), checked, merged)
	}
}

// TestInternMarkDecides plants a stored residue under the hash key of a
// different one and checks that the marks and the length, not the key,
// decide equality: a same-length residue differing in one state and a
// superset both get states of their own, and are found again behind the
// planted one in their key's probe sequence.
func TestInternMarkDecides(t *testing.T) {
	n := buildNFA(t, "^abcdef")
	c := newConstructor(n, DefaultMaxStates)
	if c.findCore(c.closure(n.Start)) != 0 {
		t.Fatal("want an empty core for an anchored rule")
	}
	a := []nfa.StateID{1, 2, 3}
	idA, err := c.internFresh(0, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range [][]nfa.StateID{{1, 2, 4}, {1, 2, 3, 4}} {
		h := sumMix(0, other)
		if slices.Contains(c.hashes, h) {
			t.Fatalf("%v: key already taken", other)
		}
		key := c.hashes[idA]
		c.hashes[idA] = h
		c.place(idA) // a's state first under other's key
		id, err := c.internFresh(0, other)
		if err != nil {
			t.Fatal(err)
		}
		if id == idA {
			t.Fatalf("%v interned as %v, the residue planted under its key", other, a)
		}
		if again, _ := c.internFresh(0, slices.Clone(other)); again != id {
			t.Fatalf("%v: interned again as %d, want %d", other, again, id)
		}
		c.hashes[idA] = key
	}
	if again, _ := c.internFresh(0, []nfa.StateID{3, 1, 2}); again != idA || len(c.accepts) != 3 {
		t.Fatalf("a permutation of %v interned as %d of %d states, want %d of 3", a, again, len(c.accepts), idA)
	}
}

// TestInternPartDecides plants a stored state that holds a part under the
// hash key of a same-size set that differs from it in one of the part's
// states, given as the own states of the empty part: a set intern must
// decide by the part's states, which it does not otherwise read.
func TestInternPartDecides(t *testing.T) {
	n := buildNFA(t, "ab.*cd", "x[^y]*z", "a.*b.*c", "^q[a-c]{2}r")
	c := newConstructor(n, DefaultMaxStates)
	if err := c.run(); err != nil {
		t.Fatal(err)
	}
	planted := 0
	for i := range len(c.accepts) {
		p := c.part[i]
		if p == 0 {
			continue
		}
		set := append(slices.Clone(c.parts[p].states), c.arena[c.off[i]:c.off[i+1]]...)
		for q := range nfa.StateID(n.NumStates()) {
			if !c.parts[0].in.has(q) && !slices.Contains(set, q) {
				set[0] = q // a state of the part swapped for one outside the state
				break
			}
		}
		h := sumMix(0, set)
		if slices.Contains(c.hashes, h) {
			t.Fatalf("state %d: key already taken", i)
		}
		key := c.hashes[i]
		c.hashes[i] = h
		c.place(uint32(i))
		if id, err := c.internFresh(0, set); err != nil || id == uint32(i) {
			t.Fatalf("state %d with one state of part %d swapped: got %d, %v", i, p, id, err)
		}
		c.hashes[i] = key
		planted++
	}
	if planted < 5 {
		t.Fatalf("%d states with a part planted", planted)
	}
}

// TestInternStartResidue covers the start residue's own generation: when
// the start closure holds the core (state 1's dot-star) and more, state 0
// is interned as start \ C = {0, 3} like any other residue, and "ab"
// leads back to it through the lookup.
func TestInternStartResidue(t *testing.T) {
	n := &nfa.NFA{States: []nfa.State{
		{Eps: []nfa.StateID{1, 3}, Trans: []nfa.Transition{{Class: regexparse.SingleClass('a'), To: 2}}},
		{Trans: []nfa.Transition{{Class: regexparse.AnyClass(), To: 1}}},
		{Trans: []nfa.Transition{{Class: regexparse.SingleClass('b'), To: 0}}, Matches: []int{1}},
		{Trans: []nfa.Transition{{Class: regexparse.SingleClass('c'), To: 2}}},
	}}
	assertSameAsReference(t, "start residue", n, DefaultMaxStates)
	c := newConstructor(n, DefaultMaxStates)
	if err := c.run(); err != nil {
		t.Fatal(err)
	}
	start := slices.Clone(c.arena[c.off[0]:c.off[1]])
	slices.Sort(start)
	if c.startFull || !slices.Equal(start, []nfa.StateID{0, 3}) {
		t.Fatalf("startFull=%v, state 0 stores %v: want the residue {0, 3}", c.startFull, start)
	}
	a := c.row(0)[c.classOf['a']]
	if to := c.row(int(a))[c.classOf['b']]; a == 0 || to != 0 {
		t.Fatalf("'a' goes to %d and 'ab' to %d, want 'ab' back at 0", a, to)
	}
	states := len(c.accepts)
	if id, err := c.internFresh(0, []nfa.StateID{3, 0}); err != nil || id != 0 || len(c.accepts) != states {
		t.Fatalf("start residue reversed: got %d, %d states of %d, %v", id, len(c.accepts), states, err)
	}
}

// cacheUse is how the (part, class) table served a construction, replayed
// from its rows: reused counts the (state, class) pairs run answered from
// it and partReused those of them a part's own row answered; partMoves
// counts the pairs whose own states have no transition on a class the
// state's part has one on, and filledNew the entries that are a state
// interned by the transition that filled them.
type cacheUse struct{ transitions, reused, partReused, partMoves, filledNew int }

// replayCache re-spreads every state of a finished construction, its part
// and its own states apart. A state whose own states have no transition
// on k goes to C ∪ succ(C, k) ∪ succ(part, k), a function of the part and
// k, or of k alone when the part has no transition on k either: the first
// such transition per key fills the table, and every later one must land
// on the same state. A startFull state 0 must have an own transition on
// every class, or it would read or fill the table.
func replayCache(t testing.TB, c *constructor) cacheUse {
	t.Helper()
	k := len(c.rep)
	u := cacheUse{transitions: len(c.accepts) * k}
	table := make([]uint32, len(c.parts)*k) // +1
	partMoves := make([]bool, k)
	newest := uint32(0) // highest state id met so far: state 0, then the rows
	for cur := range len(c.accepts) {
		c.spread(c.parts[c.part[cur]].states)
		for j := range k {
			partMoves[j] = len(c.raw[j])+len(c.raw[k]) > 0
			c.raw[j] = c.raw[j][:0]
		}
		c.raw[k] = c.raw[k][:0] // the targets on every class
		c.spread(c.arena[c.off[cur]:c.off[cur+1]])
		for j := range k {
			silent, to := len(c.raw[j])+len(c.raw[k]) == 0, c.row(cur)[j]
			c.raw[j] = c.raw[j][:0]
			if silent && cur == 0 && c.startFull {
				t.Fatalf("startFull state 0 has no transition on class %d", j)
			}
			key := j
			if partMoves[j] {
				key += int(c.part[cur]) * k
			}
			switch {
			case !silent:
			case table[key] != 0:
				if to != table[key]-1 {
					t.Fatalf("state %d class %d: %d, but the table holds %d", cur, j, to, table[key]-1)
				}
				u.reused++
				if key >= k {
					u.partReused++
				}
			default:
				table[key] = to + 1
				if to > newest {
					u.filledNew++
				}
			}
			if silent && key >= k {
				u.partMoves++
			}
			newest = max(newest, to)
		}
		c.raw[k] = c.raw[k][:0]
	}
	return u
}

// coreSize returns |C|, the states of the empty part's in.
func coreSize(c *constructor) int {
	n := 0
	for _, w := range c.parts[0].in {
		n += bits.OnesCount64(w)
	}
	return n
}
