// Package patterns provides the seven named rule sets of the paper's
// evaluation (Table V): B217p, C7p, C8, C10, S24, S31p and S34.
//
// The original sets are not reproducible — the C patterns are proprietary
// vendor rules, and the cited Snort/Bro snapshots are no longer published
// — so these are synthetic sets generated deterministically to match the
// paper's §V-A characterization of each family:
//
//   - C sets: few rules, heavy dot-star and almost-dot-star use, often
//     multiple separators per rule; the worst DFA state explosion.
//   - S sets: Snort-style; many almost-dot-star rules and long literal
//     strings, a few dot-stars, and a large anchored fraction.
//   - B217p: Bro-style; hundreds of unanchored literal strings with a
//     small number of dot-star rules mixed in — enough, by design, that
//     the plain DFA exceeds its construction budget ("could not be
//     constructed", Table V).
//
// Every set is a fixed function of its name: generation uses a counter-
// based word scheme, not a random source, so state counts and benchmark
// results are stable across runs and machines.
package patterns

import (
	"fmt"
	"sort"
	"strings"

	"matchfilter/internal/regexparse"
)

// Rule is one generated pattern with its 1-based rule id.
type Rule struct {
	ID      int32
	Source  string
	Pattern *regexparse.Pattern
}

// Info describes a named set.
type Info struct {
	Name        string
	Description string
	NumRules    int
}

// Names returns the available set names in the paper's Table V order.
// The bounded-repeat sets (CounterNames) are deliberately excluded: they
// are not the paper's, and the Table V harness also builds each named set
// as an undecomposed DFA, which CTR24 is designed to defeat.
func Names() []string {
	return []string{"B217p", "C7p", "C8", "C10", "S24", "S31p", "S34"}
}

// CounterNames returns the heavy bounded-repeat sets of the counter
// experiment. CTR8's windows are small enough that the state-expanded
// encoding still builds, giving a direct size/throughput comparison;
// CTR24's windows make subset construction track which of the last ~200
// positions ended an A-match, so its expanded DFA exceeds any practical
// state budget and only the counter-register path can compile it.
func CounterNames() []string {
	return []string{"CTR8", "CTR24"}
}

// Describe returns metadata for every named set.
func Describe() []Info {
	out := make([]Info, 0, len(Names()))
	for _, name := range Names() {
		rules, err := Load(name)
		if err != nil {
			// Generation of built-in sets cannot fail; a failure here is
			// a programming error in this package.
			panic(fmt.Sprintf("patterns: built-in set %s: %v", name, err))
		}
		out = append(out, Info{
			Name:        name,
			Description: describe(name),
			NumRules:    len(rules),
		})
	}
	return out
}

func describe(name string) string {
	switch name {
	case "B217p":
		return "Bro-style: many unanchored strings plus dot-stars; DFA-infeasible"
	case "C7p":
		return "vendor-style: few rules, multiple dot-star/almost-dot-star each"
	case "C8":
		return "vendor-style: small mixed set"
	case "C10":
		return "vendor-style: dot-star heavy, tiny MFA"
	case "S24":
		return "Snort-style: anchored almost-dot-star rules and long strings"
	case "S31p":
		return "Snort-style: larger mix with restored commented rules"
	case "S34":
		return "Snort-style: medium mix"
	case "CTR8":
		return "bounded-repeat: small windows, buildable both ways"
	case "CTR24":
		return "bounded-repeat: wide windows, expansion-infeasible"
	default:
		return ""
	}
}

// Load generates and parses the named set. Rule ids are 1..n in order.
func Load(name string) ([]Rule, error) {
	sources, err := Sources(name)
	if err != nil {
		return nil, err
	}
	rules := make([]Rule, len(sources))
	for i, src := range sources {
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			return nil, fmt.Errorf("patterns: set %s rule %d: %w", name, i+1, err)
		}
		rules[i] = Rule{ID: int32(i + 1), Source: src, Pattern: p}
	}
	return rules, nil
}

// Sources returns the regex sources of the named set.
func Sources(name string) ([]string, error) {
	switch name {
	case "B217p":
		return b217p(), nil
	case "C7p":
		return c7p(), nil
	case "C8":
		return c8(), nil
	case "C10":
		return c10(), nil
	case "S24":
		return s24(), nil
	case "S31p":
		return s31p(), nil
	case "S34":
		return s34(), nil
	case "CTR8":
		return ctr8(), nil
	case "CTR24":
		return ctr24(), nil
	default:
		return nil, fmt.Errorf("patterns: unknown set %q (known: %s)",
			name, strings.Join(Names(), ", "))
	}
}

// word generates the n-th synthetic keyword of a family. Words from
// different indices share no prefix, suffix or infix relations that would
// block decomposition: each is consonant-framed with a unique two-letter
// core, e.g. "kab", "kacem", ... The fam byte keeps families disjoint.
func word(fam byte, n, extra int) string {
	const letters = "bcdfghjklmnpqrstvwz"
	var sb strings.Builder
	sb.WriteByte(fam)
	sb.WriteByte('a' + byte(n%26))
	sb.WriteByte(letters[(n/26)%len(letters)])
	for i := 0; i < extra; i++ {
		sb.WriteByte('a' + byte((n+7*i+13)%26))
		sb.WriteByte(letters[(n*3+5*i+1)%len(letters)])
	}
	return sb.String()
}

// longWord builds a long literal (Snort "content"-style) of 2k+3 bytes.
func longWord(fam byte, n, k int) string { return word(fam, n, k) }

// c7p: 11 rules — the paper's worst DFA blowup relative to size. Nine
// unanchored gap separators multiply the DFA by ~2^9 over its string
// base while the MFA keeps every fragment additive.
func c7p() []string {
	var out []string
	// Three rules with two dot-stars (three segments) each.
	for i := 0; i < 3; i++ {
		out = append(out, fmt.Sprintf("%s.*%s.*%s",
			word('c', 3*i, 1), word('c', 3*i+1, 1), word('c', 3*i+2, 1)))
	}
	// One rule mixing a dot-star with an almost-dot-star gap.
	out = append(out, fmt.Sprintf(`%s.*%s[^\n]*%s`,
		word('d', 0, 1), word('d', 1, 1), word('d', 2, 1)))
	// One single almost-dot-star rule.
	out = append(out, fmt.Sprintf(`%s[^\n]*%s`, word('d', 3, 1), word('d', 4, 1)))
	// Six plain keyword rules.
	for i := 0; i < 6; i++ {
		out = append(out, word('f', i, 1))
	}
	return out
}

// c8: 8 milder rules (paper: 3,786 DFA states).
func c8() []string {
	var out []string
	for i := 0; i < 4; i++ {
		out = append(out, fmt.Sprintf("%s.*%s", word('g', 2*i, 1), word('g', 2*i+1, 1)))
	}
	for i := 0; i < 2; i++ {
		out = append(out, fmt.Sprintf(`%s[^\n]*%s`, word('h', 2*i, 2), word('h', 2*i+1, 2)))
	}
	out = append(out, longWord('j', 0, 6))
	out = append(out, fmt.Sprintf("%s[0-9]{4}%s", word('j', 1, 1), word('j', 2, 1)))
	return out
}

// c10: 10 dot-star-heavy rules over very short words, whose decomposition
// leaves almost nothing (paper: 19,508 DFA states but only 81 MFA states
// — fewer than the NFA).
func c10() []string {
	var out []string
	for i := 0; i < 3; i++ {
		out = append(out, fmt.Sprintf("%s.*%s.*%s",
			word('k', 3*i, 0), word('k', 3*i+1, 0), word('k', 3*i+2, 0)))
	}
	for i := 0; i < 4; i++ {
		out = append(out, fmt.Sprintf("%s.*%s", word('l', 2*i, 0), word('l', 2*i+1, 0)))
	}
	for i := 0; i < 3; i++ {
		out = append(out, word('m', i, 0))
	}
	return out
}

// sFamily builds a Snort-style mix: anchored header rules with
// almost-dot-star line gaps (cheap for the DFA — at most one anchored
// head is live per flow), long content strings, and a small number of
// unanchored gap rules that drive the DFA growth.
func sFamily(fam byte, anchored, almost, long, dotstar, insens int) []string {
	var out []string
	n := 0
	for i := 0; i < anchored; i++ {
		out = append(out, fmt.Sprintf(`^%s[^\n]*%s`, word(fam, n, 1), word(fam, n+1, 1)))
		n += 2
	}
	for i := 0; i < almost; i++ {
		out = append(out, fmt.Sprintf(`%s[^\n]*%s`, word(fam, n, 1), word(fam, n+1, 1)))
		n += 2
	}
	for i := 0; i < long; i++ {
		out = append(out, longWord(fam, n, 8))
		n++
	}
	for i := 0; i < dotstar; i++ {
		out = append(out, fmt.Sprintf("%s.*%s", word(fam, n, 2), word(fam, n+1, 2)))
		n += 2
	}
	for i := 0; i < insens; i++ {
		out = append(out, fmt.Sprintf(`/^%s[^\r\n]*%s/i`, word(fam, n, 1), word(fam, n+1, 1)))
		n += 2
	}
	return out
}

func s24() []string { return sFamily('p', 8, 2, 9, 2, 3) }

func s31p() []string { return sFamily('q', 17, 2, 13, 2, 6) }

func s34() []string { return sFamily('r', 13, 2, 12, 2, 5) }

// ctr8: 8 Snort-style bounded-repeat rules A.{n,m}B / A[^\n]{n,m}B with
// windows small enough (m <= 12) that repeat expansion still builds a
// DFA: the comparison set for measuring what counter compilation saves
// when both encodings exist.
func ctr8() []string {
	var out []string
	for i := 0; i < 4; i++ {
		out = append(out, fmt.Sprintf("%s.{%d,%d}%s",
			word('y', 2*i, 1), 4+i, 9+i, word('y', 2*i+1, 1)))
	}
	for i := 0; i < 3; i++ {
		out = append(out, fmt.Sprintf(`%s[^\n]{%d,%d}%s`,
			word('z', 2*i, 1), 3+i, 10+i, word('z', 2*i+1, 1)))
	}
	out = append(out, fmt.Sprintf("%s.{5,12}%s", word('y', 8, 2), word('y', 9, 2)))
	return out
}

// ctr24: 24 bounded-repeat rules whose windows reach into the hundreds —
// Snort distance/within-style constraints. An unanchored A.{n,m}B forces
// the subset construction to track which of the last m positions ended
// an A-match (exponentially many subsets), so the expanded DFA blows
// through its state budget and only counter registers can compile the
// set.
func ctr24() []string {
	var out []string
	for i := 0; i < 12; i++ {
		n := 40 + 15*i
		out = append(out, fmt.Sprintf("%s.{%d,%d}%s",
			word('y', 20+2*i, 1), n, n+60+5*i, word('y', 21+2*i, 1)))
	}
	for i := 0; i < 8; i++ {
		n := 30 + 20*i
		out = append(out, fmt.Sprintf(`%s[^\n]{%d,%d}%s`,
			word('z', 20+2*i, 1), n, n+80, word('z', 21+2*i, 1)))
	}
	// Four chained rules: dot-star guard into a wide bounded window.
	for i := 0; i < 4; i++ {
		out = append(out, fmt.Sprintf("%s.*%s.{%d,%d}%s",
			word('y', 50+3*i, 1), word('y', 51+3*i, 1), 50+10*i, 160+10*i, word('y', 52+3*i, 1)))
	}
	return out
}

// b217p: 224 rules, mostly unanchored strings; the 24 dot-star rules arm
// ~32 independent gap flags, so the undecomposed DFA must exceed any
// practical construction budget (Table V reports exactly this failure).
func b217p() []string {
	var out []string
	for i := 0; i < 200; i++ {
		out = append(out, word('t', i, 1+i%3))
	}
	for i := 0; i < 16; i++ {
		out = append(out, fmt.Sprintf("%s.*%s", word('v', 2*i, 1), word('v', 2*i+1, 1)))
	}
	for i := 0; i < 8; i++ {
		out = append(out, fmt.Sprintf("%s.*%s.*%s",
			word('w', 3*i, 1), word('w', 3*i+1, 1), word('w', 3*i+2, 1)))
	}
	return out
}

// AllWords returns the distinct literal segments used by a set, sorted.
// The trace synthesizer uses them to embed partial and full matches.
func AllWords(name string) ([]string, error) {
	sources, err := Sources(name)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, src := range sources {
		for _, tok := range splitLiterals(src) {
			if len(tok) >= 2 {
				seen[tok] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Strings(out)
	return out, nil
}

// splitLiterals extracts maximal lowercase-letter runs from a source.
func splitLiterals(src string) []string {
	var out []string
	var cur strings.Builder
	for i := 0; i < len(src); i++ {
		c := src[i]
		if c >= 'a' && c <= 'z' {
			cur.WriteByte(c)
			continue
		}
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}
