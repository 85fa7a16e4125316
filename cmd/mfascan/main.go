// Command mfascan scans input with a compiled pattern set and reports
// every confirmed match. Input is either a pcap capture (full
// Ethernet/IPv4/TCP decode with flow reassembly, the paper's Figure 4
// path) or a raw byte stream treated as a single flow.
//
// Malformed frames and records are skipped and counted by default;
// -strict aborts on the first one with exit code 2.
//
// -stats-json dumps the final scan statistics as a JSON document (to
// stdout with "-", else to the named file) for scripted consumers; the
// human-readable summary still goes to stdout.
//
// Usage:
//
//	mfascan -set S24 -pcap trace.pcap
//	mfascan -rules rules.txt -raw payload.bin
//	tracegen -set S24 -out - | mfascan -set S24 -pcap -
//	mfascan -set C8 -pcap trace.pcap -q -stats-json stats.json
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"matchfilter/internal/core"
	"matchfilter/internal/flow"
	"matchfilter/internal/patterns"
	"matchfilter/internal/pcap"
	"matchfilter/internal/rules"
	"matchfilter/internal/telemetry"
)

const (
	exitError  = 1 // generic operational error
	exitStrict = 2 // -strict: first malformed frame/record
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mfascan:", err)
		if code == 0 {
			code = exitError
		}
	}
	os.Exit(code)
}

func run() (int, error) {
	set := flag.String("set", "", "built-in pattern set name ("+strings.Join(patterns.Names(), ", ")+")")
	rulesFile := flag.String("rules", "", "file with one pattern per line")
	engineFile := flag.String("engine", "", "load a compiled engine written by mfabuild -o")
	pcapPath := flag.String("pcap", "", "pcap file to scan (- for stdin)")
	rawPath := flag.String("raw", "", "raw payload file to scan as one flow (- for stdin)")
	strict := flag.Bool("strict", false, "abort on the first malformed frame or record (exit code 2) instead of skip-and-count")
	quiet := flag.Bool("q", false, "suppress per-match lines, print only the summary")
	statsJSON := flag.String("stats-json", "", "write final scan stats as JSON to this file (- for stdout)")
	flag.Parse()

	var m *core.MFA
	var sources []string
	var err error
	if *engineFile != "" {
		if *set != "" || *rulesFile != "" {
			return exitError, fmt.Errorf("-engine replaces -set/-rules")
		}
		if m, sources, err = rules.ReadImage(*engineFile); err != nil {
			return exitError, err
		}
	} else {
		src, err := rules.Source(*set, *rulesFile)
		if err != nil {
			return exitError, err
		}
		var rs []core.Rule
		if rs, sources, err = rules.Load(src); err != nil {
			return exitError, err
		}
		if m, err = core.Compile(rs, core.Options{}); err != nil {
			return exitError, err
		}
	}

	switch {
	case *pcapPath != "" && *rawPath != "":
		return exitError, fmt.Errorf("use either -pcap or -raw, not both")
	case *pcapPath != "":
		report, err := scanPcap(m, sources, *pcapPath, *strict, *quiet)
		if err != nil {
			var me *malformedError
			if errors.As(err, &me) {
				return exitStrict, err
			}
			return exitError, err
		}
		if err := writeStatsJSON(*statsJSON, report); err != nil {
			return exitError, err
		}
		return 0, nil
	case *rawPath != "":
		report, err := scanRaw(m, sources, *rawPath, *quiet)
		if err != nil {
			return exitError, err
		}
		if err := writeStatsJSON(*statsJSON, report); err != nil {
			return exitError, err
		}
		return 0, nil
	default:
		return exitError, fmt.Errorf("one of -pcap or -raw is required")
	}
}

// writeStatsJSON dumps the final stats through the telemetry JSON
// writer, so every machine-readable surface in the repository formats
// alike. path "" disables, "-" selects stdout.
func writeStatsJSON(path string, v any) error {
	switch path {
	case "":
		return nil
	case "-":
		return telemetry.WriteJSONValue(os.Stdout, v)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteJSONValue(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pcapReport is the -stats-json document for a pcap scan: the full
// reassembly stats plus scan-level outcomes.
type pcapReport struct {
	Mode string `json:"mode"` // "pcap"
	flow.Stats
	Matches   int64   `json:"matches"`
	Malformed int64   `json:"malformed"`
	ElapsedNs int64   `json:"elapsed_ns"`
	MBPerSec  float64 `json:"mb_per_s"`
}

// rawReport is the -stats-json document for a raw single-flow scan.
type rawReport struct {
	Mode      string  `json:"mode"` // "raw"
	Bytes     int64   `json:"bytes"`
	Matches   int64   `json:"matches"`
	ElapsedNs int64   `json:"elapsed_ns"`
	MBPerSec  float64 `json:"mb_per_s"`
}

func openInput(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(bufio.NewReader(os.Stdin)), nil
	}
	return os.Open(path)
}

// malformedError marks an abort caused by malformed capture input, so
// run can map it to the strict-mode exit code rather than the generic
// one.
type malformedError struct{ err error }

func (e *malformedError) Error() string { return e.err.Error() }
func (e *malformedError) Unwrap() error { return e.err }

func scanPcap(m *core.MFA, sources []string, path string, strict, quiet bool) (*pcapReport, error) {
	in, err := openInput(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()

	var matches int64
	asm := flow.NewAssembler(flow.Config{},
		func() flow.Runner { return m.NewRunner() },
		func(mt flow.Match) {
			matches++
			if !quiet {
				fmt.Printf("%s offset %d: rule %d (%s)\n",
					mt.Flow, mt.Pos, mt.ID, sources[mt.ID-1])
			}
		})

	start := time.Now()
	pr, err := pcap.NewReader(bufio.NewReaderSize(in, 1<<20))
	if err != nil {
		return nil, &malformedError{err}
	}
	var malformed int64
	for {
		pkt, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if strict {
				return nil, &malformedError{err}
			}
			// Record-level damage cannot be resynced past: count it and
			// treat the remainder as unreadable.
			malformed++
			fmt.Fprintf(os.Stderr, "mfascan: capture unreadable past this point, stopping: %v\n", err)
			break
		}
		if err := asm.HandleFrame(pkt.Data); err != nil {
			if strict {
				return nil, &malformedError{err}
			}
			malformed++ // malformed frame: skip and keep scanning
		}
	}
	elapsed := time.Since(start)
	stats := asm.Stats()
	mbps := float64(stats.PayloadBytes) / (1 << 20) / elapsed.Seconds()
	fmt.Printf("scanned %d TCP packets, %d payload bytes in %v (%.1f MB/s)\n",
		stats.Packets, stats.PayloadBytes, elapsed, mbps)
	fmt.Printf("out-of-order segments: %d, dropped: %d, non-TCP frames: %d, malformed: %d\n",
		stats.OutOfOrder, stats.DroppedSegs, stats.SkippedFrames, malformed)
	fmt.Printf("confirmed matches: %d\n", matches)
	return &pcapReport{
		Mode:      "pcap",
		Stats:     stats,
		Matches:   matches,
		Malformed: malformed,
		ElapsedNs: elapsed.Nanoseconds(),
		MBPerSec:  mbps,
	}, nil
}

func scanRaw(m *core.MFA, sources []string, path string, quiet bool) (*rawReport, error) {
	in, err := openInput(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()

	r := m.NewRunner()
	var matches int64
	onMatch := func(id int32, pos int64) {
		matches++
		if !quiet {
			fmt.Printf("offset %d: rule %d (%s)\n", pos, id, sources[id-1])
		}
	}
	buf := make([]byte, 1<<20)
	start := time.Now()
	var total int64
	for {
		n, err := in.Read(buf)
		if n > 0 {
			total += int64(n)
			r.Feed(buf[:n], onMatch)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	mbps := float64(total) / (1 << 20) / elapsed.Seconds()
	fmt.Printf("scanned %d bytes in %v (%.1f MB/s), confirmed matches: %d\n",
		total, elapsed, mbps, matches)
	return &rawReport{
		Mode:      "raw",
		Bytes:     total,
		Matches:   matches,
		ElapsedNs: elapsed.Nanoseconds(),
		MBPerSec:  mbps,
	}, nil
}
