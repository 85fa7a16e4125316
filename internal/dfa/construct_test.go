package dfa

import (
	"errors"
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
// budget. loopStart adds a consuming self-loop on the start state, the one
// shape nfa.Build never produces: it can put the whole core inside the
// start closure.
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
// stored residue of a constructed automaton, reversed, or split into a
// core part and the rest, interns to the state that holds it.
func TestInternIgnoresOrder(t *testing.T) {
	n := buildNFA(t, "ab.*cd", "x[^y]*z", "a.*b.*c", "^q[a-c]{2}r")
	c := newConstructor(n, DefaultMaxStates)
	if err := c.run(); err != nil {
		t.Fatal(err)
	}
	states, checked := len(c.accepts), 0
	for i := range states {
		if i == 0 && c.startFull {
			continue // never interned
		}
		set := slices.Clone(c.arena[c.off[i]:c.off[i+1]])
		if len(set) < 2 {
			continue
		}
		slices.Reverse(set)
		if id, err := c.internFresh(set); err != nil || id != uint32(i) {
			t.Fatalf("state %d reversed: got %d, %v", i, id, err)
		}
		c.gen++
		for _, q := range set {
			c.mark[q] = c.gen
		}
		h := len(set) / 2
		if id, err := c.intern(set[h:], sumMix(0, set[h:]), set[:h]); err != nil || id != uint32(i) {
			t.Fatalf("state %d split: got %d, %v", i, id, err)
		}
		checked++
	}
	if len(c.accepts) != states || checked < 10 {
		t.Fatalf("%d states became %d; %d residues checked", states, len(c.accepts), checked)
	}
}

// TestInternMarkDecides plants a stored residue under the hash key of a
// different one and checks that the marks and the length, not the key,
// decide equality: a same-length residue differing in one state and a
// superset both get states of their own, and are found again behind the
// planted one in their key's chain.
func TestInternMarkDecides(t *testing.T) {
	n := buildNFA(t, "^abcdef")
	c := newConstructor(n, DefaultMaxStates)
	c.findCore(c.closures[n.Start])
	if slices.Contains(c.inCore, true) {
		t.Fatal("want an empty core for an anchored rule")
	}
	a := []nfa.StateID{1, 2, 3}
	idA, err := c.internFresh(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range [][]nfa.StateID{{1, 2, 4}, {1, 2, 3, 4}} {
		h := sumMix(0, other)
		if c.byHash[h] != 0 {
			t.Fatalf("%v: key already taken", other)
		}
		c.byHash[h] = idA + 1
		id, err := c.internFresh(other)
		if err != nil {
			t.Fatal(err)
		}
		if id == idA {
			t.Fatalf("%v interned as %v, the residue planted under its key", other, a)
		}
		c.byHash[h], c.chain[idA], c.chain[id] = idA+1, id+1, 0 // a's state first
		if again, _ := c.internFresh(slices.Clone(other)); again != id {
			t.Fatalf("%v: interned again as %d, want %d", other, again, id)
		}
		c.chain[idA] = 0
	}
	if again, _ := c.internFresh([]nfa.StateID{3, 1, 2}); again != idA || len(c.accepts) != 3 {
		t.Fatalf("a permutation of %v interned as %d of %d states, want %d of 3", a, again, len(c.accepts), idA)
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
	k := len(c.rep)
	a := c.rows[c.classOf['a']]
	if to := c.rows[int(a)*k+int(c.classOf['b'])]; a == 0 || to != 0 {
		t.Fatalf("'a' goes to %d and 'ab' to %d, want 'ab' back at 0", a, to)
	}
	states := len(c.accepts)
	if id, err := c.internFresh([]nfa.StateID{3, 0}); err != nil || id != 0 || len(c.accepts) != states {
		t.Fatalf("start residue reversed: got %d, %d states of %d, %v", id, len(c.accepts), states, err)
	}
}

// cacheUse is how the class cache served a construction, replayed from
// its rows: reused counts the (state, class) pairs run answered from it,
// filledNew the classes whose cache entry is a state interned by the
// transition that filled it.
type cacheUse struct{ transitions, reused, filledNew int }

// replayCache re-spreads every state of a finished construction. A state
// whose residue has no transition on k goes to C ∪ succ(C, k): the first
// such transition on k fills the cache, and every later one must land on
// the same state. A startFull state 0 must have a transition on every
// class, or it could touch the cache.
func replayCache(t testing.TB, c *constructor) cacheUse {
	t.Helper()
	k := len(c.rep)
	u := cacheUse{transitions: len(c.rows)}
	cached := make([]uint32, k) // +1
	newest := uint32(0)         // highest state id met so far: state 0, then the rows
	for cur := range len(c.accepts) {
		c.spread(c.arena[c.off[cur]:c.off[cur+1]])
		for j := range k {
			empty, to := len(c.raw[j]) == 0, c.rows[cur*k+j]
			c.raw[j] = c.raw[j][:0]
			switch {
			case empty && cur == 0 && c.startFull:
				t.Fatalf("startFull state 0 has no transition on class %d", j)
			case empty && cached[j] != 0:
				if to != cached[j]-1 {
					t.Fatalf("state %d class %d: %d, but the cache holds %d", cur, j, to, cached[j]-1)
				}
				u.reused++
			case empty:
				cached[j] = to + 1
				if to > newest {
					u.filledNew++
				}
			}
			newest = max(newest, to)
		}
	}
	return u
}
