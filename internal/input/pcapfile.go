// Capture-file sources: a single pcap file or stream, and the glob
// expansion that turns one spec into N concurrently-scanned files.
//
// Concurrency note: each file is its own source, so two files scan in
// parallel. Per-flow segment order is preserved within a file (one
// goroutine hands them over in order), which is the property flow reassembly
// needs; when the same 4-tuple appears in two files the interleaving
// across them is nondeterministic — capture sets split by flow (the
// normal rotation shape) are match-equivalent to a sequential scan.
package input

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"matchfilter/internal/pcap"
)

// PcapFile scans one capture file to EOF (finite). Parse failures
// follow the supervisor's malformed policy; a truncated tail ends the
// source the way the serving loop always treated it — everything before
// the cut was valid, nothing after it can be framed.
type PcapFile struct {
	Path string
}

// NewPcapFile returns a source scanning one capture file.
func NewPcapFile(path string) *PcapFile { return &PcapFile{Path: path} }

// Describe implements Source.
func (p *PcapFile) Describe() Description {
	return Description{
		Name:   "pcap:" + filepath.Base(p.Path),
		Kind:   "pcap",
		Detail: p.Path,
		Finite: true,
	}
}

// Run implements Source.
func (p *PcapFile) Run(ctx context.Context, em *Emitter) error {
	f, err := os.Open(p.Path)
	if err != nil {
		return Permanent(err)
	}
	defer f.Close()
	return pumpPcapStream(ctx, em, bufio.NewReaderSize(f, 1<<20))
}

// PcapStream scans one already-open capture stream (stdin) to EOF.
// Unlike PcapFile it cannot be restarted — the bytes are gone — so all
// its failures are permanent.
type PcapStream struct {
	Name string
	R    io.Reader
}

// NewPcapStream returns a source scanning r. name labels telemetry
// ("stdin" for the classic invocation).
func NewPcapStream(name string, r io.Reader) *PcapStream {
	return &PcapStream{Name: name, R: r}
}

// Describe implements Source.
func (p *PcapStream) Describe() Description {
	return Description{Name: "pcap:" + p.Name, Kind: "pcap", Detail: p.Name, Finite: true}
}

// Run implements Source.
func (p *PcapStream) Run(ctx context.Context, em *Emitter) error {
	err := pumpPcapStream(ctx, em, bufio.NewReaderSize(p.R, 1<<20))
	if err != nil && !errors.As(err, new(*StrictError)) {
		return Permanent(err) // a consumed stream cannot be re-read
	}
	return err
}

// pumpPcapStream is the one capture-scanning loop both file and stream
// sources share: packet bodies land in leased arena buffers, and the
// segments of the frames r already holds reach the engine as one burst
// of at most burst.Max. The burst is flushed before a read that may
// block (r has nothing buffered) and on every return.
func pumpPcapStream(ctx context.Context, em *Emitter, r *bufio.Reader) (err error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		// An unusable header (bad magic, non-Ethernet) is a malformed
		// *stream*: strict mode aborts, lenient mode counts it and lets
		// the source end — there is nothing to resynchronize to.
		if serr := em.Malformed(err); serr != nil {
			return serr
		}
		return Permanent(fmt.Errorf("input: unusable capture: %w", err))
	}
	var lease *Buf
	pr.SetAlloc(func(n int) []byte {
		lease = em.Lease(n)
		return lease.Data()
	})
	b := stager{em: em}
	defer b.close(&err)
	done := ctx.Done() // ctx.Err() would take the context's lock per frame
	for {
		select {
		case <-done:
			return nil
		default:
		}
		lease = nil
		pkt, rerr := pr.Next()
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			if lease != nil {
				lease.Release() // body read failed after the lease
			}
			// Both failure shapes end the stream: a truncated tail has
			// nothing after it, and an implausible record header cannot
			// be resynchronized past.
			return em.Malformed(rerr)
		}
		if err := em.frame(pkt.Data, lease, &b); err != nil {
			return err
		}
		if r.Buffered() == 0 {
			if err := b.flush(); err != nil {
				return err
			}
		}
	}
}

// ExpandPcaps resolves a pcap spec — a literal path, or a glob pattern —
// into one PcapFile source per matching file, sorted for deterministic
// registration order. A spec of "-" yields a single stdin stream source.
func ExpandPcaps(spec string) ([]Source, error) {
	if spec == "-" {
		return []Source{NewPcapStream("stdin", os.Stdin)}, nil
	}
	matches, err := filepath.Glob(spec)
	if err != nil {
		return nil, fmt.Errorf("input: bad pcap pattern %q: %w", spec, err)
	}
	if len(matches) == 0 {
		// Not a pattern match: treat as a literal path so the error the
		// user sees is the open failure, not a silent empty pipeline.
		if _, statErr := os.Stat(spec); statErr != nil {
			return nil, fmt.Errorf("input: pcap %q: %w", spec, statErr)
		}
		matches = []string{spec}
	}
	sort.Strings(matches)
	srcs := make([]Source, len(matches))
	for i, m := range matches {
		srcs[i] = NewPcapFile(m)
	}
	return srcs, nil
}
