package input

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSpoolPollsEveryHalfSecond pins the spool's poll: a file that
// appears after a sweep is picked up by the one 500ms later.
func TestSpoolPollsEveryHalfSecond(t *testing.T) {
	clk := useManualClock(t)
	dir := t.TempDir()
	capA := synthCapture(t, 1, 1000, nil, 5)
	framesA, _ := countCapture(t, capA)
	sink := newCollectSink()
	sup := NewSupervisor(Config{Sink: sink})
	sup.Add(NewSpool(dir))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sup.Run(ctx) }()

	clk.Await(t, 500*time.Millisecond) // the first sweep is done
	if err := os.WriteFile(filepath.Join(dir, "a.pcap"), capA, 0o644); err != nil {
		t.Fatal(err)
	}
	clk.Advance(500 * time.Millisecond)
	clk.Await(t, 500*time.Millisecond) // and the second
	waitFor(t, 10*time.Second, "the second sweep's records", func() bool {
		s, _ := sink.counts()
		return s == framesA
	})
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSpoolTailsAndRotates walks a spool directory through the life of a
// rotating capture daemon: initial file, append, rename rotation with a
// fresh file, truncate-in-place. Every phase's bytes must be delivered
// exactly once, each by the one poll after the phase.
func TestSpoolTailsAndRotates(t *testing.T) {
	clk := useManualClock(t)
	dir := t.TempDir()
	live := filepath.Join(dir, "live.pcap")

	capA := synthCapture(t, 2, 3000, nil, 1)
	capB := synthCapture(t, 2, 3000, nil, 2) // appended as header-stripped records
	capC := synthCapture(t, 2, 3000, nil, 3) // fresh file after rename rotation
	capD := synthCapture(t, 1, 1000, nil, 4) // small: truncate-in-place
	framesA, bytesA := countCapture(t, capA)
	framesB, bytesB := countCapture(t, capB)
	framesC, bytesC := countCapture(t, capC)
	framesD, bytesD := countCapture(t, capD)

	sink := newCollectSink()
	sup := NewSupervisor(Config{Sink: sink, QueueDepth: 64})
	sup.Add(NewSpool(dir))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sup.Run(ctx) }()

	atLeast := func(wantSegs, wantBytes int64, phase string) {
		t.Helper()
		clk.Step(t, spoolPoll)
		waitFor(t, 10*time.Second, phase, func() bool {
			s, b := sink.counts()
			return s >= wantSegs && b >= wantBytes
		})
		if s, b := sink.counts(); s != wantSegs || b != wantBytes {
			t.Fatalf("%s: got %d segs / %d bytes, want %d / %d", phase, s, b, wantSegs, wantBytes)
		}
	}

	// Phase 1: a complete capture appears.
	if err := os.WriteFile(live, capA, 0o644); err != nil {
		t.Fatal(err)
	}
	atLeast(framesA, bytesA, "initial file")

	// Phase 2: records appended to the live file (no global header).
	f, err := os.OpenFile(live, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(capB[24:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	atLeast(framesA+framesB, bytesA+bytesB, "appended records")

	// Phase 3: rename rotation — the old file moves out of the pattern,
	// a fresh capture takes its name.
	if err := os.Rename(live, live+".1"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(live, capC, 0o644); err != nil {
		t.Fatal(err)
	}
	atLeast(framesA+framesB+framesC, bytesA+bytesB+bytesC, "rename rotation")

	// Phase 4: truncate-in-place — a smaller capture overwrites the file.
	if err := os.WriteFile(live, capD, 0o644); err != nil {
		t.Fatal(err)
	}
	atLeast(framesA+framesB+framesC+framesD, bytesA+bytesB+bytesC+bytesD, "truncate rotation")

	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// rotationRace is a source that walks the spool's own machinery through
// the interleaving that used to deliver a rotated-in capture twice (one
// run in fifteen of TestSpoolTailsAndRotates under -race): the live file
// is renamed away, a sweep lists the directory without it, and the fresh
// file lands before that sweep gets to the vanished tail.
type rotationRace struct {
	dir        string
	capA, capC []byte
}

func (r *rotationRace) Describe() Description {
	return Description{Name: "rotation-race", Kind: "spool", Finite: true}
}

func (r *rotationRace) Run(ctx context.Context, em *Emitter) error {
	live := filepath.Join(r.dir, "live.pcap")
	tails := make(map[string]*tailFile)
	defer func() {
		for _, tf := range tails {
			tf.close()
		}
	}()
	if err := os.WriteFile(live, r.capA, 0o644); err != nil {
		return Permanent(err)
	}
	if err := reconcile(ctx, em, []string{live}, tails); err != nil {
		return err
	}
	if err := os.Rename(live, live+".1"); err != nil {
		return Permanent(err)
	}
	if err := os.WriteFile(live, r.capC, 0o644); err != nil {
		return Permanent(err)
	}
	if err := reconcile(ctx, em, nil, tails); err != nil { // the listing taken between the rename and the write
		return err
	}
	return reconcile(ctx, em, []string{live}, tails) // the next sweep finds the fresh file
}

// TestSpoolRotationRaceDeliversOnce: a tail that vanished from a stale
// listing finishes its own descriptor and nothing else, so the capture
// that took its name is delivered once, by the sweep that lists it.
func TestSpoolRotationRaceDeliversOnce(t *testing.T) {
	capA := synthCapture(t, 2, 3000, nil, 1)
	capC := synthCapture(t, 2, 3000, nil, 3)
	framesA, bytesA := countCapture(t, capA)
	framesC, bytesC := countCapture(t, capC)

	sink := newCollectSink()
	sup := NewSupervisor(Config{Sink: sink, QueueDepth: 64})
	sup.Add(&rotationRace{dir: t.TempDir(), capA: capA, capC: capC})
	if err := sup.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s, b := sink.counts(); s != framesA+framesC || b != bytesA+bytesC {
		t.Fatalf("got %d segs / %d bytes, want %d / %d", s, b, framesA+framesC, bytesA+bytesC)
	}
}

// TestSpoolDeadFileSkipped: a file with a bad magic is counted malformed
// once and then ignored, without killing the source.
func TestSpoolDeadFileSkipped(t *testing.T) {
	clk := useManualClock(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "junk.pcap"),
		make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	capA := synthCapture(t, 1, 2000, nil, 9)
	framesA, bytesA := countCapture(t, capA)

	sink := newCollectSink()
	sup := NewSupervisor(Config{Sink: sink, QueueDepth: 16})
	sup.Add(NewSpool(dir))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sup.Run(ctx) }()

	if err := os.WriteFile(filepath.Join(dir, "good.pcap"), capA, 0o644); err != nil {
		t.Fatal(err)
	}
	clk.Step(t, spoolPoll) // a sweep after the good file landed
	waitFor(t, 10*time.Second, "good file scanned past dead one", func() bool {
		s, b := sink.counts()
		return s == framesA && b == bytesA
	})
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if rows := sup.Stats(); rows[0].Malformed != 1 {
		t.Fatalf("dead file should count malformed once: %+v", rows[0])
	}
}
