// Spool source: a directory watcher that tails rotating capture files.
//
// A capture daemon (tcpdump -G, suricata's pcap-log) writes into a
// directory, rotating by rename or by truncate-in-place. The spool
// polls the directory (no kernel watch API — polling is portable,
// allocation-free at steady state, and rotation happens on second
// granularity anyway), tails every matching file from its current read
// offset, and parses appended bytes incrementally: a partial record at
// the tail simply waits for the next poll. Rotation shapes handled:
//
//   - New file appears: scanned from the beginning.
//   - Truncate-in-place (size < read offset): reset to offset 0 and
//     reparse from the new header.
//   - Rename rotation (foo.pcap -> foo.pcap.1, fresh foo.pcap): the
//     open descriptor still reads the renamed inode, so the tail is
//     finished there first, then the descriptor is reopened onto the
//     new inode (detected via os.SameFile).
//   - File disappears: its tail state is dropped.
//
// A file whose bytes stop being parseable (bad magic, implausible
// record) is marked dead and skipped until it is truncated or replaced;
// in strict mode it aborts the pipeline like any malformed input.
package input

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"matchfilter/internal/guard"
	"matchfilter/internal/pcap"
)

// spoolPattern selects the directory entries a spool tails; spoolPoll is
// how long a spool waits between directory scans.
const (
	spoolPattern = "*.pcap"
	spoolPoll    = 500 * time.Millisecond
)

// Spool tails rotating capture files in a directory.
type Spool struct {
	Dir string
}

// NewSpool returns a spool source over dir.
func NewSpool(dir string) *Spool { return &Spool{Dir: dir} }

// Describe implements Source.
func (s *Spool) Describe() Description {
	return Description{Name: "spool:" + s.Dir, Kind: "spool", Detail: s.Dir, Finite: false}
}

// Run implements Source.
func (s *Spool) Run(ctx context.Context, em *Emitter) error {
	if st, err := os.Stat(s.Dir); err != nil {
		return fmt.Errorf("input: spool: %w", err)
	} else if !st.IsDir() {
		return Permanent(fmt.Errorf("input: spool: %s is not a directory", s.Dir))
	}

	tails := make(map[string]*tailFile)
	defer func() {
		for _, tf := range tails {
			tf.close()
		}
	}()
	for {
		if err := s.sweep(ctx, em, tails); err != nil {
			return err
		}
		wake, stop := guard.After(em.sup.clock, spoolPoll)
		select {
		case <-ctx.Done():
			stop()
			return nil
		case <-wake:
		}
	}
}

// sweep lists the directory and reconciles the tail set with it.
func (s *Spool) sweep(ctx context.Context, em *Emitter, tails map[string]*tailFile) error {
	matches, err := filepath.Glob(filepath.Join(s.Dir, spoolPattern))
	if err != nil { // Dir itself holds a malformed glob pattern
		return Permanent(fmt.Errorf("input: spool: bad pattern: %w", err))
	}
	return reconcile(ctx, em, matches, tails)
}

// reconcile brings the tail set in line with matches, a listing of the
// directory that may already be stale, and drains appended bytes from
// every live tail.
func reconcile(ctx context.Context, em *Emitter, matches []string, tails map[string]*tailFile) error {
	seen := make(map[string]bool, len(matches))
	for _, path := range matches {
		seen[path] = true
		tf := tails[path]
		if tf == nil {
			f, err := os.Open(path)
			if err != nil {
				continue // raced with rotation; next poll retries
			}
			tf = &tailFile{path: path, f: f}
			tails[path] = tf
		}
		if err := tf.drain(ctx, em); err != nil {
			return err
		}
	}
	for path, tf := range tails {
		if !seen[path] {
			// Gone from the directory: finish whatever the descriptor
			// still holds, then forget it. Only the descriptor: a fresh
			// file that has taken the name since the listing is a new tail
			// for the next sweep, and following the name onto it here
			// would deliver its records twice.
			if _, err := tf.tail(ctx, em); err != nil {
				return err
			}
			tf.close()
			delete(tails, path)
		}
	}
	return nil
}

// tailFile incrementally parses one capture file.
type tailFile struct {
	path string
	f    *os.File
	off  int64 // bytes consumed from the file

	order   binary.ByteOrder // of the records; nil until the global header has parsed
	dead    bool             // unresyncable: skip until truncate/replace
	partial []byte           // unconsumed tail bytes (shorter than one record)
}

func (tf *tailFile) close() {
	if tf.f != nil {
		tf.f.Close()
		tf.f = nil
	}
}

// reset rewinds to offset 0 (truncate-in-place rotation).
func (tf *tailFile) reset() {
	tf.off = 0
	tf.order = nil
	tf.dead = false
	tf.partial = tf.partial[:0]
}

// tail reads the bytes the open descriptor has gained and emits every
// complete record, rewinding first when the file was truncated in place.
// It returns the descriptor's file info, nil when the descriptor went bad
// (the sweep will reopen next poll).
func (tf *tailFile) tail(ctx context.Context, em *Emitter) (os.FileInfo, error) {
	st, err := tf.f.Stat()
	if err != nil {
		return nil, nil
	}
	if st.Size() < tf.off {
		tf.reset()
	}
	return st, tf.consume(ctx, em, st.Size())
}

// drain tails the file and then follows a rename rotation: a swapped
// inode under the path finishes the old descriptor and reopens the new
// file.
func (tf *tailFile) drain(ctx context.Context, em *Emitter) error {
	st, err := tf.tail(ctx, em)
	if st == nil || err != nil {
		return err
	}
	if pathSt, err := os.Stat(tf.path); err == nil && !os.SameFile(st, pathSt) {
		if f, err := os.Open(tf.path); err == nil {
			tf.close()
			tf.f = f
			tf.reset()
			newSt, err := f.Stat()
			if err != nil {
				return nil
			}
			return tf.consume(ctx, em, newSt.Size())
		}
	}
	return nil
}

// consume parses bytes [tf.off, size) into records.
func (tf *tailFile) consume(ctx context.Context, em *Emitter, size int64) error {
	if tf.dead || size <= tf.off {
		return nil
	}
	n := size - tf.off
	if n > 8<<20 {
		n = 8 << 20 // bound one poll's bite; the rest next round
	}
	buf := make([]byte, n)
	read, err := tf.f.ReadAt(buf, tf.off)
	if read == 0 && err != nil {
		return nil
	}
	tf.off += int64(read)
	tf.partial = append(tf.partial, buf[:read]...)
	return tf.parse(ctx, em)
}

// parse emits every complete record in partial as one staged burst,
// keeping the remainder. Header and record validation are internal/pcap's:
// a file it refuses is marked dead.
func (tf *tailFile) parse(ctx context.Context, em *Emitter) (err error) {
	b := stager{em: em}
	defer b.close(&err)
	p := tf.partial
	if tf.order == nil {
		if len(p) < pcap.GlobalHeaderLen {
			return nil
		}
		order, err := pcap.ParseGlobalHeader(p)
		if err != nil {
			return tf.kill(em, err)
		}
		tf.order, p = order, p[pcap.GlobalHeaderLen:]
	}
	for ctx.Err() == nil && len(p) >= pcap.RecordHeaderLen {
		n, err := pcap.RecordLen(tf.order, p)
		if err != nil {
			return tf.kill(em, err)
		}
		if len(p) < pcap.RecordHeaderLen+n {
			break // partial record: wait for the next poll
		}
		lease := em.Lease(n)
		copy(lease.Data(), p[pcap.RecordHeaderLen:])
		p = p[pcap.RecordHeaderLen+n:]
		if err := em.frame(lease.Data(), lease, &b); err != nil {
			tf.partial = nil
			return err
		}
	}
	// Keep the remainder without aliasing the old backing array forever.
	rest := make([]byte, len(p))
	copy(rest, p)
	tf.partial = rest
	return nil
}

// kill marks the file unparseable and reports why under the malformed
// policy.
func (tf *tailFile) kill(em *Emitter, err error) error {
	tf.dead = true
	tf.partial = nil
	return em.Malformed(fmt.Errorf("%w in spool file %s", err, tf.path))
}
