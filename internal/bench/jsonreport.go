// Machine-readable benchmark output (-json). The tabular experiments
// stay human-oriented; this file flattens the raw rows the experiments
// already return into one uniform record shape so scripted consumers
// (regression dashboards, jq one-liners in CI) never parse the tables.
package bench

import (
	"io"
	"runtime"
	"runtime/debug"

	"matchfilter/internal/telemetry"
)

// JSONRow is one flattened measurement. Fields that do not apply to a
// given experiment are omitted; every throughput-bearing row carries the
// same four derived columns so rows are comparable across experiments.
type JSONRow struct {
	Experiment string `json:"experiment"`
	Set        string `json:"set"`
	Engine     string `json:"engine,omitempty"`
	Trace      string `json:"trace,omitempty"`
	// Shards is set on engine-scaling rows; 0 is the sequential
	// flow-scanner baseline, hence the pointer (0 must still render).
	Shards *int `json:"shards,omitempty"`
	// PM is the Becchi traffic-difficulty knob for fig5 rows; -1 marks
	// the uniform-random baseline trace.
	PM *float64 `json:"p_m,omitempty"`

	Bytes         int64   `json:"bytes,omitempty"`
	ElapsedNs     int64   `json:"elapsed_ns,omitempty"`
	NsPerByte     float64 `json:"ns_per_byte,omitempty"`
	CyclesPerByte float64 `json:"cycles_per_byte,omitempty"`
	MBPerSec      float64 `json:"mb_per_s,omitempty"`
	Matches       int64   `json:"matches,omitempty"`

	// Active-state analysis columns (experiment "active").
	MeanActive float64 `json:"mean_active,omitempty"`
	MaxActive  int     `json:"max_active,omitempty"`

	// Table-layout columns (experiment "layout", which sets States too):
	// the transition table's image size with its class map and the byte
	// equivalence-class count. BatchK is the lockstep width; 1 is the
	// single-lane path through the batcher, hence the pointer (1 must
	// still render).
	TableBytes int  `json:"table_bytes,omitempty"`
	Classes    int  `json:"classes,omitempty"`
	BatchK     *int `json:"batch_k,omitempty"`

	// Counter-experiment columns (experiment "counters"): the
	// bounded-repeat encoding under measurement ("expanded" or
	// "counters"), automaton and image sizes, the number of counter
	// registers, and build time. Failed marks an expansion that exceeded
	// the DFA state budget — such rows carry no sizes or throughput.
	Mode        string `json:"mode,omitempty"`
	States      int    `json:"states,omitempty"`
	ImageBytes  int    `json:"image_bytes,omitempty"`
	Counters    int    `json:"counters,omitempty"`
	BuildTimeNs int64  `json:"build_time_ns,omitempty"`
	Failed      bool   `json:"failed,omitempty"`
}

// JSONEnv records where a report was measured, once per file, so numbers
// from different hosts, toolchains or commits are never compared blind.
type JSONEnv struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Commit is the VCS revision stamped into the binary, "+dirty" when
	// the tree was modified; empty for builds without VCS stamping
	// (-buildvcs=false, or go run outside a repository).
	Commit string `json:"commit,omitempty"`
}

func currentEnv() JSONEnv {
	env := JSONEnv{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		var dirty string
		for _, kv := range info.Settings {
			switch {
			case kv.Key == "vcs.revision":
				env.Commit = kv.Value
			case kv.Key == "vcs.modified" && kv.Value == "true":
				dirty = "+dirty"
			}
		}
		if env.Commit != "" {
			env.Commit += dirty
		}
	}
	return env
}

// JSONReport accumulates rows across the experiments of one mfabench run
// and is written as a single document by Write.
type JSONReport struct {
	Env  JSONEnv   `json:"env"`
	Rows []JSONRow `json:"rows"`
}

func (r *JSONReport) throughputRow(experiment, set string, t Throughput) JSONRow {
	return JSONRow{
		Experiment:    experiment,
		Set:           set,
		Bytes:         t.Bytes,
		ElapsedNs:     t.Elapsed.Nanoseconds(),
		NsPerByte:     t.NsPerByte,
		CyclesPerByte: t.CyclesPerByte,
		MBPerSec:      t.MBps(),
	}
}

// AddTraces appends Figure 4 rows (experiment "fig4").
func (r *JSONReport) AddTraces(results []TraceResult) {
	for _, tr := range results {
		row := r.throughputRow("fig4", tr.Set, tr.Throughput)
		row.Engine = tr.Engine.String()
		row.Trace = tr.Trace
		row.Matches = tr.Matches
		r.Rows = append(r.Rows, row)
	}
}

// AddSynthetic appends Figure 5 rows (experiment "fig5").
func (r *JSONReport) AddSynthetic(results []SyntheticResult) {
	for _, sr := range results {
		row := r.throughputRow("fig5", sr.Set, sr.Throughput)
		row.Engine = sr.Engine.String()
		pm := sr.PM
		row.PM = &pm
		row.Matches = sr.MatchEvents
		r.Rows = append(r.Rows, row)
	}
}

// AddActiveStates appends active-state analysis rows (experiment
// "active").
func (r *JSONReport) AddActiveStates(rows []ActiveStatesRow) {
	for _, ar := range rows {
		r.Rows = append(r.Rows, JSONRow{
			Experiment:    "active",
			Set:           ar.Set,
			Engine:        EngineNFA.String(),
			CyclesPerByte: ar.CpB,
			MeanActive:    ar.MeanActive,
			MaxActive:     ar.MaxActive,
		})
	}
}

// AddEngineScaling appends shard-scaling rows (experiment "engine").
// Shards 0 is the sequential flow-scanner baseline.
func (r *JSONReport) AddEngineScaling(results []EngineScalingResult) {
	for _, er := range results {
		row := r.throughputRow("engine", er.Set, er.Throughput)
		row.Engine = EngineMFA.String()
		shards := er.Shards
		row.Shards = &shards
		row.Matches = er.Matches
		r.Rows = append(r.Rows, row)
	}
}

// AddLayout appends table-layout rows (experiment "layout"): one row per
// (set, K) lockstep measurement, each carrying the set's table shape.
func (r *JSONReport) AddLayout(results []LayoutResult) {
	for _, lr := range results {
		for _, bt := range lr.Batched {
			row := r.throughputRow("layout", lr.Set, bt.Throughput)
			row.Engine = EngineMFA.String()
			row.States = lr.States
			row.Classes = lr.Classes
			row.TableBytes = lr.TableBytes
			k := bt.K
			row.BatchK = &k
			r.Rows = append(r.Rows, row)
		}
	}
}

// AddCounters appends bounded-repeat experiment rows (experiment
// "counters"): one row per (set, encoding), including the Failed row of
// an expansion-infeasible set.
func (r *JSONReport) AddCounters(results []CounterResult) {
	for _, cr := range results {
		var row JSONRow
		if cr.Failed {
			// No measurement happened: a zero Throughput would derive
			// NaN columns (0/0), which JSON cannot carry.
			row = JSONRow{Experiment: "counters", Set: cr.Set}
		} else {
			row = r.throughputRow("counters", cr.Set, cr.Throughput)
		}
		row.Engine = EngineMFA.String()
		row.Mode = cr.Mode
		row.States = cr.States
		row.ImageBytes = cr.ImageBytes
		row.Counters = cr.Counters
		row.BuildTimeNs = cr.BuildTime.Nanoseconds()
		row.Failed = cr.Failed
		r.Rows = append(r.Rows, row)
	}
}

// Write renders the report through the telemetry JSON writer so all
// machine-readable surfaces in the repository format alike.
func (r *JSONReport) Write(w io.Writer) error {
	if r.Rows == nil {
		r.Rows = []JSONRow{} // an empty run still yields a valid document
	}
	r.Env = currentEnv()
	return telemetry.WriteJSONValue(w, r)
}
