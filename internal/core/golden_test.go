package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"matchfilter/internal/dfa"
	"matchfilter/internal/patterns"
	"matchfilter/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.sha256 from this run instead of comparing against it")

const goldenManifest = "testdata/golden.sha256"

// recordingWords returns the leading literals of the sets' classed
// bounded-gap rules A[^\n]{n,m}B: the words whose match leaves a counter
// witness that the next line end must kill.
func recordingWords(tb testing.TB, sets ...string) []string {
	tb.Helper()
	var words []string
	for _, set := range sets {
		sources, err := patterns.Sources(set)
		if err != nil {
			tb.Fatal(err)
		}
		for _, src := range sources {
			if word, _, ok := strings.Cut(src, `[^\n]{`); ok {
				words = append(words, strings.TrimPrefix(word, "^"))
			}
		}
	}
	return words
}

// TestGoldenManifest is "byte-identical to the parent commit" as a test
// (ROADMAP item 1(c)): per rule set × layout, the SHA-256 of the WriteTo
// image, of the (rule, pos) stream over a fixed MiB of text, and of the
// flow context at three cut points — the middle one mid-line, right after
// a planted word, so on the counter sets a witness is live in it. The
// manifest was generated before the change it first guarded and must
// pass unmodified across any PR that claims unchanged behaviour;
// `go test ./internal/core -run TestGoldenManifest -update` rewrites it
// after an intended change, and the diff is that change.
func TestGoldenManifest(t *testing.T) {
	var got strings.Builder
	for _, gc := range []struct {
		name string
		sets []string
	}{
		{"S24+CTR24", []string{"S24", "CTR24"}},
		{"CTR8", []string{"CTR8"}},
		{"C8", []string{"C8"}},
		{"S24", []string{"S24"}},
		{"B217p", []string{"B217p"}},
		{"C10", []string{"C10"}},
	} {
		for _, layout := range []dfa.Layout{dfa.LayoutClassed, dfa.LayoutFlat} {
			m, words := compileSets(t, Options{DFA: dfa.Options{Layout: layout}}, gc.sets...)
			name := gc.name + "/" + m.Stats().DFALayout
			var image bytes.Buffer
			if _, err := m.WriteTo(&image); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s/image %x\n", name, sha256.Sum256(image.Bytes()))

			data := trace.TextLike(1<<20, 131, words, 0.01)
			plant := words[0] // a set without bounded gaps has no witness to plant: any word
			rec := recordingWords(t, gc.sets...)
			if len(rec) > 0 {
				plant = rec[0]
			}
			at := bytes.Index(data[len(data)/2:], []byte(plant))
			if at < 0 {
				t.Fatalf("%s: %q is not planted in the second half of the text", name, plant)
			}
			cuts := []int{len(data) / 3, len(data)/2 + at + len(plant), len(data)}
			stream := sha256.New()
			matches := 0
			r := m.NewRunner()
			for i, cut := range cuts {
				r.Feed(data[int(r.Pos()):cut], func(rule int32, pos int64) {
					matches++
					fmt.Fprintf(stream, "%d %d\n", rule, pos)
				})
				state, mem, regs, ctrs := r.Context()
				if i == 1 && len(rec) > 0 && !slices.ContainsFunc(ctrs, func(w uint64) bool { return w != 0 }) {
					t.Fatalf("%s: no counter witness live right after %q at %d", name, plant, cut)
				}
				ctx := sha256.New()
				for _, v := range []any{state, r.Pos(), int32(len(mem)), []uint64(mem), int32(len(regs)), []int64(regs), int32(len(ctrs)), []uint64(ctrs)} {
					if err := binary.Write(ctx, binary.LittleEndian, v); err != nil {
						t.Fatal(err)
					}
				}
				fmt.Fprintf(&got, "%s/context@%d %x\n", name, cut, ctx.Sum(nil))
			}
			if matches == 0 {
				t.Fatalf("%s: the text produced no matches; the stream hash proves nothing", name)
			}
			fmt.Fprintf(&got, "%s/stream %x\n", name, stream.Sum(nil))
		}
	}
	if *update {
		if err := os.WriteFile(goldenManifest, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenManifest)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("behaviour differs from the committed manifest (-update rewrites it after an intended change)\ngot:\n%swant:\n%s", got.String(), want)
	}
}
