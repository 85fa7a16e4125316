package regexparse

import (
	"errors"
	"fmt"
	"strings"
)

// MaxRepeatCount bounds the {n,m} counts the parser accepts. It guards
// against absurd counts in hostile rule text; real blowup protection lives
// downstream — nfa.MaxExpandedRepeat caps duplication-expanded repeats,
// and large bounded gaps compile to counter registers (DESIGN.md §19)
// without expanding at all. Snort-style rules use counts in the hundreds
// (`[^\n]{500}` and the like), which this bound must admit.
const MaxRepeatCount = 1000

// ErrUnsupported wraps syntax the engine deliberately does not implement
// (back-references, look-around, the $ anchor). Callers can detect it with
// errors.Is to skip such rules rather than fail a whole set.
var ErrUnsupported = errors.New("unsupported regex construct")

// SyntaxError describes a parse failure with its byte offset in the
// pattern source.
type SyntaxError struct {
	Pattern string
	Offset  int
	Msg     string
	wrapped error
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("regexparse: %s at offset %d in %q", e.Msg, e.Offset, e.Pattern)
}

func (e *SyntaxError) Unwrap() error { return e.wrapped }

// Parse parses a bare pattern (no surrounding slashes, no flags).
func Parse(pattern string) (*Pattern, error) {
	return parse(pattern, false)
}

// ParsePCRE parses either a bare pattern or the slashed /body/flags form
// used by Snort rules. The only supported flags are i (case-insensitive),
// s (dotall; a no-op because dot is always dotall here) and m (a no-op
// because only the ^ start-of-flow anchor is supported).
func ParsePCRE(pattern string) (*Pattern, error) {
	body, flags, slashed := splitSlashed(pattern)
	if !slashed {
		return parse(pattern, false)
	}
	insensitive := false
	for i := 0; i < len(flags); i++ {
		switch flags[i] {
		case 'i':
			insensitive = true
		case 's', 'm':
			// Accepted, no behavioural change (see above).
		default:
			return nil, &SyntaxError{
				Pattern: pattern,
				Offset:  len(pattern) - len(flags) + i,
				Msg:     fmt.Sprintf("unsupported flag %q", flags[i]),
				wrapped: ErrUnsupported,
			}
		}
	}
	p, err := parse(body, insensitive)
	if err != nil {
		return nil, err
	}
	p.Source = pattern
	return p, nil
}

// splitSlashed recognizes /body/flags, honouring \/ escapes in the body.
func splitSlashed(pattern string) (body, flags string, ok bool) {
	if len(pattern) < 2 || pattern[0] != '/' {
		return "", "", false
	}
	end := -1
	for i := len(pattern) - 1; i > 0; i-- {
		if pattern[i] == '/' {
			end = i
			break
		}
		if pattern[i] < 'a' || pattern[i] > 'z' { // not a flag
			return "", "", false
		}
	}
	if end <= 0 {
		return "", "", false
	}
	return pattern[1:end], pattern[end+1:], true
}

type parser struct {
	src         string
	pos         int
	insensitive bool
}

func parse(src string, insensitive bool) (*Pattern, error) {
	p := &parser{src: src, insensitive: insensitive}
	pat := &Pattern{Source: src, CaseInsensitive: insensitive}
	if p.peekByte() == '^' {
		pat.Anchored = true
		p.pos++
	}
	root, err := p.parseAlternate()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.src) {
		return nil, p.errorf("unexpected %q", p.src[p.pos])
	}
	pat.Root = root
	return pat, nil
}

func (p *parser) errorf(format string, args ...any) error {
	return &SyntaxError{Pattern: p.src, Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) unsupported(what string) error {
	return &SyntaxError{Pattern: p.src, Offset: p.pos, Msg: what, wrapped: ErrUnsupported}
}

// peekByte returns the next byte without consuming it, or 0 at end.
func (p *parser) peekByte() byte {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) parseAlternate() (*Node, error) {
	first, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	alts := []*Node{first}
	for !p.eof() && p.peekByte() == '|' {
		p.pos++
		next, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		alts = append(alts, next)
	}
	return NewAlternate(alts...), nil
}

func (p *parser) parseConcat() (*Node, error) {
	var parts []*Node
	for !p.eof() {
		c := p.peekByte()
		if c == '|' || c == ')' {
			break
		}
		atom, err := p.parseRepeat()
		if err != nil {
			return nil, err
		}
		parts = append(parts, atom)
	}
	return NewConcat(parts...), nil
}

// parseRepeat parses one atom plus any trailing quantifiers.
func (p *parser) parseRepeat() (*Node, error) {
	atom, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for !p.eof() {
		switch p.peekByte() {
		case '*':
			p.pos++
			atom = &Node{Op: OpStar, Sub: atom}
		case '+':
			p.pos++
			atom = &Node{Op: OpPlus, Sub: atom}
		case '?':
			p.pos++
			atom = &Node{Op: OpQuest, Sub: atom}
		case '{':
			rep, ok, err := p.parseBraceQuantifier()
			if err != nil {
				return nil, err
			}
			if !ok {
				return atom, nil
			}
			rep.Sub = atom
			atom = rep
		default:
			return atom, nil
		}
	}
	return atom, nil
}

// parseBraceQuantifier parses {n}, {n,} or {n,m} starting at '{'. A brace
// that does not form a valid quantifier is treated as a literal '{' by
// returning ok=false with the position unchanged, matching PCRE behaviour.
func (p *parser) parseBraceQuantifier() (*Node, bool, error) {
	start := p.pos
	p.pos++ // consume '{'
	min, ok := p.parseInt()
	if !ok {
		p.pos = start
		return nil, false, nil
	}
	max := min
	if p.peekByte() == ',' {
		p.pos++
		if p.peekByte() == '}' {
			max = InfiniteRepeat
		} else {
			max, ok = p.parseInt()
			if !ok {
				p.pos = start
				return nil, false, nil
			}
		}
	}
	if p.peekByte() != '}' {
		p.pos = start
		return nil, false, nil
	}
	p.pos++
	if min > MaxRepeatCount || (max != InfiniteRepeat && max > MaxRepeatCount) {
		p.pos = start
		return nil, false, fmt.Errorf("%w: repeat count above %d in %q",
			ErrUnsupported, MaxRepeatCount, p.src)
	}
	if max != InfiniteRepeat && max < min {
		p.pos = start
		return nil, false, p.errorf("invalid repeat range {%d,%d}", min, max)
	}
	return &Node{Op: OpRepeat, Min: min, Max: max}, true, nil
}

func (p *parser) parseInt() (int, bool) {
	start := p.pos
	n := 0
	for !p.eof() && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		n = n*10 + int(p.src[p.pos]-'0')
		if n > 1<<20 {
			return 0, false
		}
		p.pos++
	}
	return n, p.pos > start
}

func (p *parser) parseAtom() (*Node, error) {
	c := p.peekByte()
	switch c {
	case '(':
		p.pos++
		if strings.HasPrefix(p.src[p.pos:], "?") {
			// (?:...) non-capturing groups are common in Snort rules;
			// other (?...) constructs (look-around, named groups) are not
			// regular and are rejected.
			if strings.HasPrefix(p.src[p.pos:], "?:") {
				p.pos += 2
			} else {
				return nil, p.unsupported("(?...) construct")
			}
		}
		inner, err := p.parseAlternate()
		if err != nil {
			return nil, err
		}
		if p.peekByte() != ')' {
			return nil, p.errorf("missing closing parenthesis")
		}
		p.pos++
		return inner, nil
	case ')':
		return nil, p.errorf("unmatched closing parenthesis")
	case '*', '+', '?':
		return nil, p.errorf("quantifier %q with nothing to repeat", c)
	case '[':
		return p.parseClass()
	case '.':
		p.pos++
		return NewClassNode(AnyClass()), nil
	case '^':
		return nil, p.unsupported("mid-pattern ^ anchor")
	case '$':
		return nil, p.unsupported("$ anchor")
	case '\\':
		cl, err := p.parseEscape(false)
		if err != nil {
			return nil, err
		}
		return p.leaf(cl), nil
	case 0:
		return nil, p.errorf("unexpected end of pattern")
	default:
		p.pos++
		return p.leaf(SingleClass(c)), nil
	}
}

// leaf returns the node matching one byte of cl, folded under /i: the
// shared leaf of that byte when the folded class holds one.
func (p *parser) leaf(cl Class) *Node {
	cl = p.fold(cl)
	if c, ok := cl.SingleByte(); ok {
		return &literals[c]
	}
	return NewClassNode(cl)
}

// fold applies case-insensitive closure when the /i flag is active.
func (p *parser) fold(cl Class) Class {
	if p.insensitive {
		return cl.FoldCase()
	}
	return cl
}

// parseClass parses a bracket expression starting at '['.
func (p *parser) parseClass() (*Node, error) {
	p.pos++ // consume '['
	negate := false
	if p.peekByte() == '^' {
		negate = true
		p.pos++
	}
	var cl Class
	first := true
	for {
		if p.eof() {
			return nil, p.errorf("missing closing bracket")
		}
		c := p.peekByte()
		if c == ']' && !first {
			p.pos++
			break
		}
		first = false
		lo, loIsClass, loClass, err := p.parseClassAtom()
		if err != nil {
			return nil, err
		}
		if loIsClass {
			cl = cl.Union(loClass)
			continue
		}
		// Possible range lo-hi.
		if p.peekByte() == '-' && p.pos+1 < len(p.src) && p.src[p.pos+1] != ']' {
			p.pos++ // consume '-'
			hi, hiIsClass, _, err := p.parseClassAtom()
			if err != nil {
				return nil, err
			}
			if hiIsClass {
				return nil, p.errorf("invalid range endpoint (shorthand class)")
			}
			if hi < lo {
				return nil, p.errorf("invalid range %q-%q", lo, hi)
			}
			cl.AddRange(lo, hi)
			continue
		}
		cl.Add(lo)
	}
	if negate {
		cl = cl.Negate()
	}
	if cl.IsEmpty() {
		return nil, p.errorf("empty character class")
	}
	return p.leaf(cl), nil
}

// parseClassAtom parses one class member: a literal byte or an escape.
// isClass is true when the escape denoted a shorthand class (\d etc.),
// which cannot be a range endpoint.
func (p *parser) parseClassAtom() (b byte, isClass bool, cl Class, err error) {
	c := p.peekByte()
	if c == '\\' {
		cl, err := p.parseEscape(true)
		if err != nil {
			return 0, false, Class{}, err
		}
		if single, ok := cl.SingleByte(); ok {
			return single, false, Class{}, nil
		}
		return 0, true, cl, nil
	}
	p.pos++
	return c, false, Class{}, nil
}

// parseEscape parses a backslash escape starting at '\\' and returns the
// class of bytes it denotes. inClass relaxes which trailing bytes are
// accepted as identity escapes.
func (p *parser) parseEscape(inClass bool) (Class, error) {
	p.pos++ // consume '\\'
	if p.eof() {
		return Class{}, p.errorf("trailing backslash")
	}
	c := p.src[p.pos]
	p.pos++
	switch c {
	case 'n':
		return SingleClass('\n'), nil
	case 't':
		return SingleClass('\t'), nil
	case 'r':
		return SingleClass('\r'), nil
	case 'f':
		return SingleClass('\f'), nil
	case 'v':
		return SingleClass('\v'), nil
	case 'a':
		return SingleClass(7), nil
	case 'e':
		return SingleClass(0x1b), nil
	case '0':
		return SingleClass(0), nil
	case 'd':
		return RangeClass('0', '9'), nil
	case 'D':
		return RangeClass('0', '9').Negate(), nil
	case 'w':
		return wordClass(), nil
	case 'W':
		return wordClass().Negate(), nil
	case 's':
		return spaceClass(), nil
	case 'S':
		return spaceClass().Negate(), nil
	case 'x':
		hi, ok1 := hexVal(p.peekByte())
		if !ok1 {
			return Class{}, p.errorf(`\x needs two hex digits`)
		}
		p.pos++
		lo, ok2 := hexVal(p.peekByte())
		if !ok2 {
			return Class{}, p.errorf(`\x needs two hex digits`)
		}
		p.pos++
		return SingleClass(byte(hi<<4 | lo)), nil
	case 'b', 'B', 'A', 'Z', 'z', 'G':
		p.pos -= 2
		defer func() { p.pos += 2 }()
		return Class{}, p.unsupported(fmt.Sprintf(`\%c assertion`, c))
	}
	if c >= '1' && c <= '9' {
		p.pos -= 2
		defer func() { p.pos += 2 }()
		return Class{}, p.unsupported("back-reference")
	}
	if isASCIILetterOrDigit(c) && !inClass {
		return Class{}, p.errorf(`unknown escape \%c`, c)
	}
	// Identity escape of a metacharacter or punctuation.
	return SingleClass(c), nil
}

func isASCIILetterOrDigit(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func wordClass() Class {
	cl := RangeClass('a', 'z').Union(RangeClass('A', 'Z')).Union(RangeClass('0', '9'))
	cl.Add('_')
	return cl
}

func spaceClass() Class {
	return StringClass(" \t\n\r\f\v")
}

func hexVal(c byte) (int, bool) {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0'), true
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10, true
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10, true
	default:
		return 0, false
	}
}
