// Counting-gap example: the paper's §VI future-work construct, .{n,},
// implemented with filter position registers. Rules like "header must be
// followed by a payload marker at least N bytes later" are common in
// exploit signatures (shellcode after a fixed-size header, padding before
// a return address). Expanded into automaton states, an unanchored .{n,}
// costs up to 2^n subset states; as a filter register it costs 8 bytes
// per flow.
//
//	go run ./examples/counting
package main

import (
	"fmt"
	"log"

	"matchfilter"
)

func main() {
	log.SetFlags(0)

	// MSG1 must be followed by MSG2 with at least 16 bytes in between —
	// say, a mandatory fixed-size header section.
	const rule = `MSG1.{16,}MSG2`

	// Compile splits the gap onto a position register by default.
	withRegisters := matchfilter.MustCompile([]string{rule})
	// For comparison: the same rule expanded into automaton states.
	expanded := matchfilter.MustCompile([]string{rule}, matchfilter.WithoutDecomposition())

	fmt.Printf("rule: %s\n", rule)
	fmt.Printf("  expanded automaton:  %5d states\n", expanded.Stats().DFAStates)
	fmt.Printf("  with gap registers:  %5d states (+1 register, 8 B per flow)\n\n",
		withRegisters.Stats().DFAStates)

	inputs := []string{
		"MSG1" + pad(16) + "MSG2",                   // gap exactly 16: match
		"MSG1" + pad(15) + "MSG2",                   // one byte short: no match
		"MSG1" + pad(100) + "MSG2",                  // long gap: match
		"MSG2" + pad(20) + "MSG1",                   // wrong order: no match
		"MSG1MSG2",                                  // adjacent: no match
		"MSG1" + pad(3) + "MSG1" + pad(16) + "MSG2", // earliest MSG1 is the witness
	}
	for _, input := range inputs {
		a := withRegisters.Scan([]byte(input))
		b := expanded.Scan([]byte(input))
		verdict := "no match"
		if len(a) > 0 {
			verdict = fmt.Sprintf("match at %d", a[0].End)
		}
		agreement := "=="
		if len(a) != len(b) {
			agreement = "!= DISAGREEMENT"
		}
		fmt.Printf("  %-34s %-12s (%s expanded engine)\n", preview(input), verdict, agreement)
	}
}

func pad(n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = '.'
	}
	return string(out)
}

func preview(s string) string {
	if len(s) > 32 {
		return s[:14] + "..." + s[len(s)-14:]
	}
	return s
}
