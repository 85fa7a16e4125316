package main

import (
	"fmt"
	"strings"
)

// The rule sets below are the benchmark's own copies of the synthetic
// families the repository evaluates (see internal/patterns): the
// benchmark must keep measuring the same rules when a later change edits
// that package, so nothing here is imported from it. Every set is a
// fixed function of its name; the workload seed drives traffic only,
// because automaton size — and with it every throughput number — would
// otherwise differ from seed to seed.

// word is the n-th synthetic keyword of a family: consonant-framed with a
// unique two-letter core, so words share no prefix, suffix or infix that
// would block decomposition.
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

// rulesC8: 8 mild vendor-style rules (dot-star and line-gap pairs).
func rulesC8() []string {
	var out []string
	for i := 0; i < 4; i++ {
		out = append(out, fmt.Sprintf("%s.*%s", word('g', 2*i, 1), word('g', 2*i+1, 1)))
	}
	for i := 0; i < 2; i++ {
		out = append(out, fmt.Sprintf(`%s[^\n]*%s`, word('h', 2*i, 2), word('h', 2*i+1, 2)))
	}
	out = append(out, word('j', 0, 6))
	out = append(out, fmt.Sprintf("%s[0-9]{4}%s", word('j', 1, 1), word('j', 2, 1)))
	return out
}

// rulesC10: 10 dot-star-heavy rules over very short words; the MFA is
// tiny (45 states), so per-packet costs dominate per-byte ones.
func rulesC10() []string {
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

// rulesS24: Snort-style mix — anchored and unanchored line-gap rules,
// long content strings, two dot-stars, three case-insensitive headers.
func rulesS24() []string {
	const fam = 'p'
	var out []string
	n := 0
	for i := 0; i < 8; i++ {
		out = append(out, fmt.Sprintf(`^%s[^\n]*%s`, word(fam, n, 1), word(fam, n+1, 1)))
		n += 2
	}
	for i := 0; i < 2; i++ {
		out = append(out, fmt.Sprintf(`%s[^\n]*%s`, word(fam, n, 1), word(fam, n+1, 1)))
		n += 2
	}
	for i := 0; i < 9; i++ {
		out = append(out, word(fam, n, 8))
		n++
	}
	for i := 0; i < 2; i++ {
		out = append(out, fmt.Sprintf("%s.*%s", word(fam, n, 2), word(fam, n+1, 2)))
		n += 2
	}
	for i := 0; i < 3; i++ {
		out = append(out, fmt.Sprintf(`/^%s[^\r\n]*%s/i`, word(fam, n, 1), word(fam, n+1, 1)))
		n += 2
	}
	return out
}

// rulesCTR24: 24 bounded-repeat rules with windows in the hundreds; only
// the counter-register path of the splitter can compile them.
func rulesCTR24() []string {
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
	for i := 0; i < 4; i++ {
		out = append(out, fmt.Sprintf("%s.*%s.{%d,%d}%s",
			word('y', 50+3*i, 1), word('y', 51+3*i, 1), 50+10*i, 160+10*i, word('y', 52+3*i, 1)))
	}
	return out
}

// rulesB217p: 224 Bro-style rules — 200 unanchored strings plus 24
// dot-star rules; the one set here whose table (~1 MiB) leaves L1 and
// whose compile takes seconds.
func rulesB217p() []string {
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

// ruleWords returns the distinct lowercase literal runs (length >= 2) of
// a rule set in first-appearance order; the traffic generator plants
// them so partial and full matches occur at the workload's density.
func ruleWords(sources []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, src := range sources {
		start := -1
		for i := 0; i <= len(src); i++ {
			if i < len(src) && src[i] >= 'a' && src[i] <= 'z' {
				if start < 0 {
					start = i
				}
				continue
			}
			if start >= 0 {
				if w := src[start:i]; len(w) >= 2 && !seen[w] {
					seen[w] = true
					out = append(out, w)
				}
				start = -1
			}
		}
	}
	return out
}
