package matchfilter_test

import (
	"fmt"
	"strings"

	"matchfilter"
)

func ExampleCompile() {
	engine, err := matchfilter.Compile([]string{
		"attack.*payload",
		`/^get[^\n]*passwd/i`,
	})
	if err != nil {
		fmt.Println("compile:", err)
		return
	}
	for _, m := range engine.Scan([]byte("GET /etc/passwd\nattack with payload")) {
		fmt.Printf("pattern %d (%s) matched at offset %d\n",
			m.Pattern, engine.Pattern(m.Pattern), m.End)
	}
	// Output:
	// pattern 1 (/^get[^\n]*passwd/i) matched at offset 14
	// pattern 0 (attack.*payload) matched at offset 34
}

func ExampleEngine_NewStream() {
	engine := matchfilter.MustCompile([]string{"needle.*haystack"})
	stream := engine.NewStream(func(m matchfilter.Match) {
		fmt.Printf("match ends at %d\n", m.End)
	})
	// The match spans three writes; the per-flow (q, m) context carries
	// the partial state across them.
	for _, chunk := range []string{"a nee", "dle in a hay", "stack!"} {
		stream.Write([]byte(chunk)) //nolint:errcheck // Write never fails
	}
	fmt.Println("scanned", stream.Pos(), "bytes")
	// Output:
	// match ends at 21
	// scanned 23 bytes
}

func ExampleEngine_Stats() {
	// Three dot-star rules: a plain DFA would pay a multiplicative
	// state cost; decomposition keeps it additive with 3 memory bits.
	engine := matchfilter.MustCompile([]string{
		"alpha.*omega", "gamma.*delta", "epsilon.*zeta",
	})
	st := engine.Stats()
	fmt.Printf("%d patterns -> %d fragments, %d decomposed, %d memory bits\n",
		st.Patterns, st.Fragments, st.Decomposed, st.MemoryBits)
	// Output:
	// 3 patterns -> 6 fragments, 3 decomposed, 3 memory bits
}

func ExampleWithCountingGaps() {
	// A minimum-distance constraint: MSG2 at least 8 bytes after MSG1. The
	// gap compiles to a position register with or without the option.
	engine := matchfilter.MustCompile([]string{"MSG1.{8,}MSG2"})
	fmt.Println("near:", len(engine.Scan([]byte("MSG1..MSG2"))))
	fmt.Println("far: ", len(engine.Scan([]byte("MSG1........MSG2"))))
	// Output:
	// near: 0
	// far:  1
}

func ExampleWithBoundedRepeatCounters() {
	// A bounded-distance constraint (Snort's distance/within): MSG2
	// between 8 and 40 bytes after MSG1. The 40-wide window would cost
	// thousands of expanded DFA states; the counter register Compile uses,
	// with or without the option, costs none.
	engine := matchfilter.MustCompile([]string{"MSG1.{8,40}MSG2"})
	fmt.Println("near:", len(engine.Scan([]byte("MSG1..MSG2"))))
	fmt.Println("mid: ", len(engine.Scan([]byte("MSG1........MSG2"))))
	far := "MSG1" + strings.Repeat(".", 41) + "MSG2"
	fmt.Println("far: ", len(engine.Scan([]byte(far))))
	// Output:
	// near: 0
	// mid:  1
	// far:  0
}
