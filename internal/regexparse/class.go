// Package regexparse parses the PCRE subset used by network-security
// pattern sets (Snort, Bro, vendor rules) into an AST consumed by the
// NFA/DFA constructors and by the regex splitter.
//
// Supported syntax: byte literals, escapes (\n \t \r \f \v \a \0 \xHH,
// shorthand classes \d \D \w \W \s \S), character classes with ranges and
// negation, the dot wildcard, the quantifiers * + ? {n} {n,} {n,m},
// alternation, grouping, a leading ^ anchor, and the /.../i slashed form
// with a case-insensitive flag. Following the paper's usage, the dot
// matches any byte including newline ("dotall" semantics); patterns that
// want line-bounded gaps write [^\n]* explicitly, which is exactly the
// almost-dot-star construct the splitter targets.
//
// A Node is immutable once the parser returns it: nothing downstream
// changes a node, so the splitter's fragments share a rule's subtrees
// instead of copying them, and every leaf matching a single byte is that
// byte's one shared leaf, not a node of its own.
package regexparse

import (
	"fmt"
	"math/bits"
	"strings"
)

// AlphabetSize is the size of the input alphabet: all byte values.
const AlphabetSize = 256

// Class is a set of byte values represented as a 256-bit bitmap. The zero
// value is the empty class.
type Class [4]uint64

// Add inserts byte c into the class.
func (cl *Class) Add(c byte) {
	cl[c>>6] |= 1 << (c & 63)
}

// AddRange inserts every byte in [lo, hi] into the class. It is a no-op
// when lo > hi.
func (cl *Class) AddRange(lo, hi byte) {
	for c := int(lo); c <= int(hi); c++ {
		cl.Add(byte(c))
	}
}

// Remove deletes byte c from the class.
func (cl *Class) Remove(c byte) {
	cl[c>>6] &^= 1 << (c & 63)
}

// Contains reports whether byte c is in the class.
func (cl Class) Contains(c byte) bool {
	return cl[c>>6]&(1<<(c&63)) != 0
}

// Negate returns the complement of the class over the full byte alphabet.
func (cl Class) Negate() Class {
	return Class{^cl[0], ^cl[1], ^cl[2], ^cl[3]}
}

// Union returns the set union of cl and other.
func (cl Class) Union(other Class) Class {
	return Class{cl[0] | other[0], cl[1] | other[1], cl[2] | other[2], cl[3] | other[3]}
}

// Intersect returns the set intersection of cl and other.
func (cl Class) Intersect(other Class) Class {
	return Class{cl[0] & other[0], cl[1] & other[1], cl[2] & other[2], cl[3] & other[3]}
}

// Minus returns the bytes in cl that are not in other.
func (cl Class) Minus(other Class) Class {
	return Class{cl[0] &^ other[0], cl[1] &^ other[1], cl[2] &^ other[2], cl[3] &^ other[3]}
}

// IsEmpty reports whether the class contains no bytes.
func (cl Class) IsEmpty() bool {
	return cl[0]|cl[1]|cl[2]|cl[3] == 0
}

// Count returns the number of bytes in the class.
func (cl Class) Count() int {
	return bits.OnesCount64(cl[0]) + bits.OnesCount64(cl[1]) +
		bits.OnesCount64(cl[2]) + bits.OnesCount64(cl[3])
}

// Equal reports whether cl and other contain exactly the same bytes.
func (cl Class) Equal(other Class) bool {
	return cl == other
}

// Bytes returns the members of the class in ascending order.
func (cl Class) Bytes() []byte {
	out := make([]byte, 0, cl.Count())
	for w := 0; w < 4; w++ {
		word := cl[w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, byte(w*64+b))
			word &^= 1 << b
		}
	}
	return out
}

// SingleByte returns the class's only member when the class holds exactly
// one byte; ok is false otherwise.
func (cl Class) SingleByte() (c byte, ok bool) {
	if cl.Count() != 1 {
		return 0, false
	}
	w := 0
	for cl[w] == 0 {
		w++
	}
	return byte(w*64 + bits.TrailingZeros64(cl[w])), true
}

// SingleClass returns a class containing only byte c.
func SingleClass(c byte) Class {
	var cl Class
	cl.Add(c)
	return cl
}

// AnyClass returns the class containing every byte value.
func AnyClass() Class {
	return Class{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
}

// RangeClass returns the class containing every byte in [lo, hi].
func RangeClass(lo, hi byte) Class {
	var cl Class
	cl.AddRange(lo, hi)
	return cl
}

// StringClass returns the class containing each byte of s.
func StringClass(s string) Class {
	var cl Class
	for i := 0; i < len(s); i++ {
		cl.Add(s[i])
	}
	return cl
}

// FoldCase returns the class closed under ASCII case folding: for every
// letter in the class, the opposite-case letter is added.
func (cl Class) FoldCase() Class {
	const upper = 0x3ffffff << ('A' - 64) // 'A'..'Z' in word 1; 'a'..'z' sit 32 bits above
	cl[1] |= (cl[1]&upper)<<32 | (cl[1]>>32)&upper
	return cl
}

// String renders the class in regex syntax, preferring the shortest of a
// positive or negated bracket expression. It is intended for debugging and
// for round-trip tests, not byte-exact reproduction of source syntax.
func (cl Class) String() string {
	n := cl.Count()
	switch {
	case n == 0:
		return "[]"
	case n == AlphabetSize:
		return "."
	}
	if c, ok := cl.SingleByte(); ok {
		return escapeByte(c, false)
	}
	neg := cl.Negate()
	if n <= neg.Count() {
		return "[" + classBody(cl) + "]"
	}
	return "[^" + classBody(neg) + "]"
}

// classBody renders the members of cl as a bracket-expression body using
// ranges where they shorten the output.
func classBody(cl Class) string {
	var sb strings.Builder
	members := cl.Bytes()
	for i := 0; i < len(members); {
		j := i
		for j+1 < len(members) && members[j+1] == members[j]+1 {
			j++
		}
		if j-i >= 2 {
			sb.WriteString(escapeByte(members[i], true))
			sb.WriteByte('-')
			sb.WriteString(escapeByte(members[j], true))
		} else {
			for k := i; k <= j; k++ {
				sb.WriteString(escapeByte(members[k], true))
			}
		}
		i = j + 1
	}
	return sb.String()
}

// escapeByte renders a single byte as regex source. inClass selects the
// (smaller) set of metacharacters that need escaping inside brackets.
func escapeByte(c byte, inClass bool) string {
	switch c {
	case '\n':
		return `\n`
	case '\r':
		return `\r`
	case '\t':
		return `\t`
	case '\f':
		return `\f`
	case '\v':
		return `\v`
	case '\\':
		return `\\`
	}
	if inClass {
		switch c {
		case ']', '^', '-':
			return `\` + string(c)
		}
	} else {
		switch c {
		case '.', '*', '+', '?', '(', ')', '[', ']', '{', '}', '|', '^', '$', '/':
			return `\` + string(c)
		}
	}
	if c >= 0x20 && c < 0x7f {
		return string(c)
	}
	return fmt.Sprintf(`\x%02x`, c)
}
