package bench

import (
	"bytes"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"matchfilter/internal/engine"
	"matchfilter/internal/flow"
)

// EngineTrace is the trace profile of the shard-scaling experiment: many
// concurrent flows (so every shard has work), moderate packets, light
// reordering. Scale multiplies the per-flow byte count.
func EngineTrace(scale float64) TraceProfile {
	if scale <= 0 {
		scale = 1
	}
	return TraceProfile{
		Name:      "SHARD",
		Flows:     64,
		FlowBytes: int(float64(64<<10) * scale),
		MSS:       1460,
		OOOProb:   0.01,
		WordProb:  0.008,
		Seed:      131,
	}
}

// EngineScalingResult is one row of the scaling experiment.
type EngineScalingResult struct {
	Set    string
	Shards int // 0 = the sequential flow.ScanPcap baseline
	Throughput
	Matches int64
}

// EngineScaling measures the sharded engine (internal/engine) against the
// sequential scanner on a multi-flow trace, per pattern set, at each
// shard count. The speedup column is relative to the sequential baseline;
// it approaches the core count on parallel hardware and ≈1× on one core
// (the dispatch layer's channel handoff is the residual cost), where what
// a shard gains over the baseline is its batched lockstep scan (DESIGN.md
// §18).
func EngineScaling(w io.Writer, engines []*Engines, profile TraceProfile, shardCounts []int) ([]EngineScalingResult, error) {
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4, 8}
	}
	fmt.Fprintf(w, "Engine scaling: sharded concurrent scan vs sequential (MFA, trace %s: %d flows x %d KB)\n",
		profile.Name, profile.Flows, profile.FlowBytes>>10)

	var all []EngineScalingResult
	for _, e := range engines {
		pcapBytes, err := SynthesizeTrace(profile, e.Set)
		if err != nil {
			return nil, err
		}
		newRunner := func() flow.Runner { return e.MFA.NewRunner() }

		// Sequential baseline (warmup + measured, as in RunTrace).
		if _, err := flow.ScanPcap(bytes.NewReader(pcapBytes), flow.Config{}, newRunner, nil); err != nil {
			return nil, err
		}
		var seqMatches int64
		start := time.Now()
		seqStats, err := flow.ScanPcap(bytes.NewReader(pcapBytes), flow.Config{}, newRunner,
			func(flow.Match) { seqMatches++ })
		if err != nil {
			return nil, err
		}
		seq := EngineScalingResult{
			Set: e.Set, Shards: 0, Matches: seqMatches,
			Throughput: throughputOf(seqStats.PayloadBytes, time.Since(start), seqMatches),
		}
		all = append(all, seq)

		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "[%s]\tconfig\tMB/s\tCpB\tspeedup\tmatches\n", e.Set)
		fmt.Fprintf(tw, "\tsequential\t%.1f\t%.0f\t1.00x\t%d\n",
			seq.MBps(), seq.CyclesPerByte, seq.Matches)

		for _, shards := range shardCounts {
			cfg := engine.Config{Shards: shards}
			// Warmup, then measured.
			if _, err := engine.ScanPcap(bytes.NewReader(pcapBytes), cfg, newRunner, nil); err != nil {
				return nil, err
			}
			start := time.Now()
			st, err := engine.ScanPcap(bytes.NewReader(pcapBytes), cfg, newRunner, nil)
			if err != nil {
				return nil, err
			}
			res := EngineScalingResult{
				Set: e.Set, Shards: shards, Matches: st.Matches,
				Throughput: throughputOf(st.PayloadBytes, time.Since(start), st.Matches),
			}
			all = append(all, res)
			fmt.Fprintf(tw, "\tshards=%d\t%.1f\t%.0f\t%.2fx\t%d\n",
				shards, res.MBps(), res.CyclesPerByte, seq.Elapsed.Seconds()/res.Elapsed.Seconds(), res.Matches)
			if st.Matches != seqMatches {
				return nil, fmt.Errorf("bench: %s shards=%d: %d matches, sequential found %d",
					e.Set, shards, st.Matches, seqMatches)
			}
		}

		if err := tw.Flush(); err != nil {
			return nil, err
		}
	}
	return all, nil
}

// throughputOf fills the common Throughput fields from a measurement.
func throughputOf(bytes int64, elapsed time.Duration, matches int64) Throughput {
	nsPerByte := float64(elapsed.Nanoseconds()) / float64(bytes)
	return Throughput{
		Bytes:         bytes,
		Elapsed:       elapsed,
		MatchEvents:   matches,
		NsPerByte:     nsPerByte,
		CyclesPerByte: nsPerByte * NominalGHz,
	}
}

// MBps is the scan rate in MiB per second.
func (t Throughput) MBps() float64 {
	return float64(t.Bytes) / (1 << 20) / t.Elapsed.Seconds()
}
