// Process-level metrics: Go runtime gauges and uptime.
//
// One row set over runtime.MemStats, so a scrape pays ReadMemStats's
// brief stop-the-world once — fine on an exposition path hit a few times
// a minute, not fine per segment or per gauge.

package telemetry

import (
	"runtime"
	"time"
)

// RegisterRuntimeMetrics adds process-level gauges to the registry:
// goroutine count, heap usage, GC totals, GOMAXPROCS, and uptime
// relative to start.
func RegisterRuntimeMetrics(r *Registry, start time.Time) {
	registerRuntimeMetrics(r, start, runtime.ReadMemStats)
}

func registerRuntimeMetrics(r *Registry, start time.Time, readMem func(*runtime.MemStats)) {
	Rows(r, func() (m runtime.MemStats) { readMem(&m); return m }, []Row[runtime.MemStats]{
		GaugeRow("mfa_go_goroutines", "Number of live goroutines.", func(*runtime.MemStats) float64 { return float64(runtime.NumGoroutine()) }),
		GaugeRow("mfa_go_gomaxprocs", "GOMAXPROCS at scrape time.", func(*runtime.MemStats) float64 { return float64(runtime.GOMAXPROCS(0)) }),
		GaugeRow("mfa_go_heap_alloc_bytes", "Bytes of allocated heap objects.", func(m *runtime.MemStats) float64 { return float64(m.HeapAlloc) }),
		GaugeRow("mfa_go_sys_bytes", "Bytes obtained from the OS.", func(m *runtime.MemStats) float64 { return float64(m.Sys) }),
		CounterRow("mfa_go_gc_cycles_total", "Completed GC cycles.", func(m *runtime.MemStats) float64 { return float64(m.NumGC) }),
		CounterRow("mfa_process_uptime_seconds", "Seconds since the process started serving.", func(*runtime.MemStats) float64 { return time.Since(start).Seconds() }),
	})
}
