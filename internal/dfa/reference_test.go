package dfa

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"matchfilter/internal/nfa"
	"matchfilter/internal/patterns"
	"matchfilter/internal/regexparse"
	"matchfilter/internal/splitter"
)

// referenceFromNFA is the textbook subset construction this package
// shipped before construction moved to class space: one ε-closure per
// state and byte, states keyed by their whole closure, a 256-wide row per
// state. It is kept as the oracle the production constructor must equal
// bit for bit, and returns its 256-wide rows before minimization and the
// class quotient.
func referenceFromNFA(n *nfa.NFA, maxStates int) (*rows, error) {
	seen := make([]bool, n.NumStates())
	subset := make(map[string]uint32)
	var queue [][]nfa.StateID
	var trans [][]uint32
	var accepts [][]int32

	intern := func(closure []nfa.StateID) (uint32, error) {
		key := closureKey(closure)
		if id, ok := subset[key]; ok {
			return id, nil
		}
		if len(accepts) >= maxStates {
			return 0, fmt.Errorf("%w: more than %d states", ErrTooManyStates, maxStates)
		}
		id := uint32(len(accepts))
		subset[key] = id
		var ids []int32
		for _, s := range closure {
			for _, m := range n.States[s].Matches {
				ids = append(ids, int32(m))
			}
		}
		slices.Sort(ids)
		accepts = append(accepts, slices.Compact(ids))
		queue = append(queue, closure)
		return id, nil
	}
	if _, err := intern(n.EpsClosure(nil, []nfa.StateID{n.Start}, seen)); err != nil {
		return nil, err
	}

	var buckets [regexparse.AlphabetSize][]nfa.StateID
	for len(queue) > 0 {
		closure := queue[0]
		queue = queue[1:]
		for i := range buckets {
			buckets[i] = buckets[i][:0]
		}
		for _, s := range closure {
			for _, t := range n.States[s].Trans {
				for w, word := range t.Class {
					for ; word != 0; word &= word - 1 {
						b := w*64 + bits.TrailingZeros64(word)
						buckets[b] = append(buckets[b], t.To)
					}
				}
			}
		}
		row := make([]uint32, regexparse.AlphabetSize)
		// Bytes with identical raw target sets share the same successor;
		// cache on the raw-set key to skip redundant closure work.
		local := make(map[string]uint32, 8)
		for b := range row {
			targets := buckets[b]
			slices.Sort(targets)
			targets = slices.Compact(targets)
			rawKey := closureKey(targets)
			id, ok := local[rawKey]
			if !ok {
				var err error
				if id, err = intern(n.EpsClosure(nil, targets, seen)); err != nil {
					return nil, err
				}
				local[rawKey] = id
			}
			row[b] = id
		}
		trans = append(trans, row)
	}

	numStates := len(trans)
	perm, acceptStart := acceptTail(numStates, func(s int) bool { return accepts[s] != nil })
	d := &rows{
		numStates:   numStates,
		start:       perm[0],
		next:        make([]uint32, numStates*regexparse.AlphabetSize),
		k:           regexparse.AlphabetSize,
		classOf:     identityClasses[:],
		acceptStart: acceptStart,
		accepts:     make([][]int32, uint32(numStates)-acceptStart),
	}
	for old, row := range trans {
		base := int(perm[old]) * regexparse.AlphabetSize
		for b, to := range row {
			d.next[base+b] = perm[to]
		}
		if m := accepts[old]; m != nil {
			d.accepts[perm[old]-acceptStart] = m
		}
	}
	return d, nil
}

func closureKey(states []nfa.StateID) string {
	buf := make([]byte, 4*len(states))
	for i, s := range states {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(s))
	}
	return string(buf)
}

// assertSameAsReference builds n with the reference constructor once and
// with FromNFA under both minimization settings, and requires the
// serialized automata — state count and numbering, class map, table,
// accept sets — to be equal byte for byte. The reference's rows go
// through the same minimize and classed steps, there over 256 columns.
//
// Both sides get the same state budget; when the reference exceeds it,
// FromNFA must too, and assertSameAsReference reports false.
func assertSameAsReference(t *testing.T, label string, n *nfa.NFA, budget int) bool {
	t.Helper()
	ref, err := referenceFromNFA(n, budget)
	if err != nil {
		if _, err := FromNFA(n, Options{MaxStates: budget}); !errors.Is(err, ErrTooManyStates) {
			t.Fatalf("%s: reference exceeds %d states, FromNFA returned %v", label, budget, err)
		}
		return false
	}
	for _, minimize := range []bool{false, true} {
		want := ref
		if minimize {
			want = ref.minimize()
		}
		got, err := FromNFA(n, Options{MaxStates: budget, Minimize: minimize})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var g, w bytes.Buffer
		if _, err := got.WriteTo(&g); err != nil {
			t.Fatal(err)
		}
		wantDFA, err := want.classed()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wantDFA.WriteTo(&w); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Fatalf("%s minimize=%v: %d states, %d classes, %d image bytes; reference %d states, %d image bytes",
				label, minimize, got.NumStates(), got.NumClasses(), g.Len(), want.numStates, w.Len())
		}
	}
	return true
}

// patternNFAs returns the NFAs core.Compile would build for a named set
// (its fragments after splitting) and the one for the undecomposed rules.
func patternNFAs(t *testing.T, name string, opts splitter.Options) (fragments, whole *nfa.NFA) {
	t.Helper()
	rules, err := patterns.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	srules := make([]splitter.Rule, len(rules))
	direct := make([]nfa.Rule, len(rules))
	for i, r := range rules {
		srules[i] = splitter.Rule{Pattern: r.Pattern, RuleID: r.ID}
		direct[i] = nfa.Rule{Pattern: r.Pattern, MatchID: int(r.ID)}
	}
	fragments, _ = fragmentNFA(t, srules, opts)
	return fragments, mustBuild(t, direct)
}

// fragmentNFA splits the rules as core.Compile does and builds the NFA of
// the fragments, also reporting how many counter registers they drive;
// nil when the splitter refuses the set.
func fragmentNFA(t testing.TB, rules []splitter.Rule, opts splitter.Options) (*nfa.NFA, int) {
	t.Helper()
	res, err := splitter.Split(rules, opts)
	if err != nil {
		return nil, 0
	}
	frags := make([]nfa.Rule, len(res.Fragments))
	for i, f := range res.Fragments {
		frags[i] = nfa.Rule{Pattern: f.Pattern, MatchID: int(f.InternalID)}
	}
	return mustBuild(t, frags), res.Program().NumCounters()
}

func mustBuild(t testing.TB, rules []nfa.Rule) *nfa.NFA {
	t.Helper()
	n, err := nfa.Build(rules)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestReferencePatternSets checks every shipped pattern set the reference
// constructor can build in under 10 s: the fragment NFA of each set and
// the undecomposed NFA of the three smallest. B217p is also built as the
// paper's conditions leave it — three overlapping dot-stars whole, 9,921
// states, the largest automaton the differential sees; the reference needs
// ~9 s for it, so it runs as a subtest of its own beside the others and
// the rest of the package's tests, and -short runs leave it out.
func TestReferencePatternSets(t *testing.T) {
	t.Parallel() // beside TestReferenceRandomRuleSets, once the serial tests are done
	for _, name := range append(patterns.Names(), patterns.CounterNames()...) {
		t.Run(name, func(t *testing.T) {
			t.Parallel() // the reference needs seconds for B217p
			fragments, whole := patternNFAs(t, name, splitter.Options{})
			assertSameAsReference(t, name+" fragments", fragments, DefaultMaxStates)
			switch name {
			case "C7p", "C8", "C10":
				assertSameAsReference(t, name+" undecomposed", whole, DefaultMaxStates)
			}
		})
	}
	t.Run("B217p paper conditions", func(t *testing.T) {
		if testing.Short() {
			t.Skip("the reference needs ~9 s")
		}
		t.Parallel()
		unsplit, _ := patternNFAs(t, "B217p", splitter.Options{Construction: splitter.Paper})
		assertSameAsReference(t, "B217p fragments, paper conditions", unsplit, DefaultMaxStates)
	})
}

// TestReferenceStateBudget checks that both constructors give up at the
// same budget: on the sets whose expansion is infeasible, and exactly at
// the state count of one that builds.
func TestReferenceStateBudget(t *testing.T) {
	_, b217p := patternNFAs(t, "B217p", splitter.Options{})
	ctr24, _ := patternNFAs(t, "CTR24", splitter.Options{Construction: splitter.Paper}) // bounded repeats expanded, not counted
	for label, n := range map[string]*nfa.NFA{"B217p undecomposed": b217p, "CTR24 expanded": ctr24} {
		for _, budget := range []int{1, 64, 400} {
			_, refErr := referenceFromNFA(n, budget)
			_, err := FromNFA(n, Options{MaxStates: budget})
			if !errors.Is(refErr, ErrTooManyStates) || !errors.Is(err, ErrTooManyStates) {
				t.Fatalf("%s budget %d: reference %v, FromNFA %v", label, budget, refErr, err)
			}
		}
	}
	s24, _ := patternNFAs(t, "S24", splitter.Options{})
	d, err := FromNFA(s24, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{d.NumStates() - 1, d.NumStates()} {
		_, refErr := referenceFromNFA(s24, budget)
		_, err := FromNFA(s24, Options{MaxStates: budget})
		if wantErr := budget < d.NumStates(); errors.Is(refErr, ErrTooManyStates) != wantErr || errors.Is(err, ErrTooManyStates) != wantErr {
			t.Fatalf("S24 budget %d of %d states: reference %v, FromNFA %v", budget, d.NumStates(), refErr, err)
		}
	}
}

// TestReferenceRandomRuleSets draws seeded rule sets over a grammar that
// reaches the constructor's corners — anchored-only sets (empty core),
// rules that begin with an every-byte class (start closure without the
// core: the class's target is in C but not in the start closure), mixed
// sets (start closure with the core), case folding, negated
// classes, [^\n]* gaps, bounded repeats compiled to counter fragments,
// and always-accepting rules (accept states inside the core) — and
// requires each corner to have been hit.
func TestReferenceRandomRuleSets(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(12))
	words := []string{"ab", "abc", "bc", "GET", "pass", "x", "Host", "q"}
	atoms := []string{"[0-9]", "[^a-c]", "[^\\n]*", ".*", "(ab|cd)", "x?", "y+", "[a-f]{2,4}", "[^\\n]{3,12}", ".", "\\x00"}
	hit := map[string]int{}
	for trial := 0; trial < 240; trial++ {
		allAnchored := trial%5 == 0
		var sources []string
		for ri := 0; ri < 1+rng.Intn(5); ri++ {
			var sb strings.Builder
			if allAnchored || rng.Intn(4) == 0 {
				sb.WriteByte('^')
			}
			sb.WriteString(words[rng.Intn(len(words))])
			for pi := 0; pi < rng.Intn(4); pi++ {
				sb.WriteString(atoms[rng.Intn(len(atoms))])
				sb.WriteString(words[rng.Intn(len(words))])
			}
			src := sb.String()
			if rng.Intn(4) == 0 {
				src = "/" + src + "/i"
			}
			sources = append(sources, src)
		}
		if !allAnchored && rng.Intn(6) == 0 {
			sources = append(sources, []string{"z*", "(ab)?", "[0-9]*"}[rng.Intn(3)])
		}
		if !allAnchored && rng.Intn(5) == 0 {
			// An unanchored rule that begins with an every-byte class puts
			// a state in the core that the start closure lacks.
			sources = append(sources, []string{".x", "[\\x00-\\xff]{2}y", ".q[^\\n]*ab"}[rng.Intn(3)])
		}

		direct := make([]nfa.Rule, len(sources))
		srules := make([]splitter.Rule, len(sources))
		for i, src := range sources {
			p, err := regexparse.ParsePCRE(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			direct[i] = nfa.Rule{Pattern: p, MatchID: i + 1}
			srules[i] = splitter.Rule{Pattern: p, RuleID: int32(i + 1)}
		}
		construction := []splitter.Construction{splitter.Extended, splitter.Paper}[trial%2]
		fragments, numCounters := fragmentNFA(t, srules, splitter.Options{Construction: construction})
		if numCounters > 0 {
			hit["counter fragments"]++
		}
		for kind, n := range map[string]*nfa.NFA{"direct": mustBuild(t, direct), "fragments": fragments} {
			if n == nil {
				continue
			}
			if !assertSameAsReference(t, fmt.Sprintf("trial %d %s %q", trial, kind, sources), n, 400) {
				hit["over budget"]++
				continue
			}

			c := newConstructor(n, DefaultMaxStates)
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
			switch {
			case coreSize(c) == 0:
				hit["empty core"]++
			case c.startFull:
				hit["start without core"]++
			default:
				hit["start with core"]++
			}
			if c.parts[0].matches != nil {
				hit["accepting core"]++
			}
			if len(c.rep) > 1 && len(c.rep) < 256 {
				hit["proper alphabet partition"]++
			}
			u := replayCache(t, c)
			if u.partReused > 0 {
				hit["successor read from a part's row"]++
			}
			if u.partMoves > 0 {
				hit["own states silent where the part moves"]++
			}
			if u.reused > u.partReused {
				hit["successor read from the empty part's row"]++
			}
			if u.filledNew > 0 {
				hit["table entry filled by a newly interned state"]++
			}
		}
	}
	t.Logf("automata per corner: %v", hit)
	for _, corner := range []string{"empty core", "start without core", "accepting core", "counter fragments", "proper alphabet partition",
		"successor read from a part's row", "own states silent where the part moves", "successor read from the empty part's row",
		"table entry filled by a newly interned state"} {
		if hit[corner] < 10 {
			t.Errorf("corner %q reached by only %d automata: %v", corner, hit[corner], hit)
		}
	}
}

// TestReferenceStartInsideCore covers a shape nfa.Build never produces:
// the start state itself inside a non-empty core (a consuming self-loop
// on the start state; nfa.Build's loop is a state of its own), so state 0
// is an interned residue like every other. Two transitions on one state
// and an accepting state inside the core ride along.
func TestReferenceStartInsideCore(t *testing.T) {
	n := &nfa.NFA{States: []nfa.State{
		{Trans: []nfa.Transition{{Class: regexparse.AnyClass(), To: 0}, {Class: regexparse.SingleClass('a'), To: 1}}, Matches: []int{3}},
		{Trans: []nfa.Transition{{Class: regexparse.RangeClass('a', 'c'), To: 2}}, Matches: []int{1}},
		{Eps: []nfa.StateID{1}, Trans: []nfa.Transition{{Class: regexparse.SingleClass('b'), To: 2}}, Matches: []int{2}},
	}}
	assertSameAsReference(t, "hand-built", n, DefaultMaxStates)
	c := newConstructor(n, DefaultMaxStates)
	if err := c.run(); err != nil {
		t.Fatal(err)
	}
	if c.startFull || !c.parts[0].in.has(0) || c.parts[0].matches == nil {
		t.Fatalf("want the start state inside an accepting core: startFull=%v core size %d, core matches %v", c.startFull, coreSize(c), c.parts[0].matches)
	}
}

// BenchmarkFromNFA times subset construction on the automata the serving
// path builds, with allocations: the largest fragment NFA (B217p), one
// with counters (S24 ∪ CTR24) and a small one (C8). reused/transition is
// the share of (state, class) transitions the (part, class) table
// answered, part-reused/transition the share a part's own row answered.
func BenchmarkFromNFA(b *testing.B) {
	for _, bc := range []struct {
		name string
		sets []string
	}{
		{"B217p", []string{"B217p"}},
		{"S24+CTR24", []string{"S24", "CTR24"}},
		{"C8", []string{"C8"}},
	} {
		var rules []splitter.Rule
		for _, set := range bc.sets {
			loaded, err := patterns.Load(set)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range loaded {
				rules = append(rules, splitter.Rule{Pattern: r.Pattern, RuleID: int32(len(rules) + 1)})
			}
		}
		n, _ := fragmentNFA(b, rules, splitter.Options{})
		c := newConstructor(n, DefaultMaxStates)
		if err := c.run(); err != nil {
			b.Fatal(err)
		}
		u := replayCache(b, c)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := FromNFA(n, Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(d.NumStates()), "states")
			}
			b.ReportMetric(float64(u.reused)/float64(u.transitions), "reused/transition")
			b.ReportMetric(float64(u.partReused)/float64(u.transitions), "part-reused/transition")
		})
	}
}
