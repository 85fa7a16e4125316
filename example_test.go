package matchfilter_test

import (
	"fmt"

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
