// Command mfaserve is the flow-scan daemon: it loads a compiled engine
// image (mfabuild -o) or compiles patterns, then scans traffic through
// the sharded concurrent engine (internal/engine), printing confirmed
// matches as they happen and a stats report at the end. It is the
// serving shape of the paper's §III-B claim: per-flow state is a tiny
// (q, m) context, so one process can track hundreds of thousands of
// concurrent flows across shards.
//
// Input pipeline (DESIGN.md §15): traffic arrives through internal/input
// sources running concurrently under one supervisor. -pcap FILE keeps the
// classic single-capture invocation ("-" reads stdin); the repeatable
// -source flag adds any mix of
//
//	-source pcap:PATH        capture file, or a glob scanned in parallel
//	-source spool:DIR        tail rotating capture files in a directory
//	-source tcp::9999        scan each accepted connection as one flow
//	-source udp::9999        scan each remote peer's datagrams as one flow
//	-source afpacket:eth0    live capture (Linux, needs CAP_NET_RAW)
//
// Each source owns a bounded handoff queue (-source-queue) into the
// engine, so a bursty source backpressures alone; a failing source is
// restarted with backoff and eventually abandoned while the others keep
// serving. Payload buffers are leased from a pooled arena and recycled
// by the engine after each scan.
//
// Robustness posture (DESIGN.md §10, §16): malformed frames and records
// are skipped and counted by default (-strict aborts on the first one
// with exit code 2); shard panics quarantine single flows under a crash
// budget; overload steps through the soft/hard degradation ladder; and
// shutdown is bounded by -drain-timeout. -stall-deadline arms a scan
// watchdog that poisons a flow stuck mid-scan and sheds traffic from a
// wedged shard; -max-memory caps buffered payload memory end to end
// (sources pause leasing near the ceiling); an infinite source that
// keeps failing moves to a half-open circuit breaker instead of dying.
// The exit status reports serving health: 0 healthy, 1 operational
// error, 2 strict-mode parse abort, 3 at least one shard ended
// unhealthy.
//
// Observability (DESIGN.md §12): the daemon always instruments itself
// through internal/telemetry — the periodic -stats ticker renders from a
// registry snapshot — and -admin additionally serves the surface over
// HTTP: /metrics (Prometheus text), /statsz (JSON engine stats),
// /healthz (503 exactly when the exit code would be 3), /events (tail of
// the match-event ring) and /debug/pprof. The admin server drains
// gracefully under the same -drain-timeout bound as the engine.
//
// Multi-tenant serving (DESIGN.md §17): the repeatable -tenant flag
// declares independent rule sets served by one daemon —
//
//	mfaserve -set C8 \
//	  -tenant 'acme=acme-rules.txt,cidr=10.1.0.0/16,max-flows=50000' \
//	  -tenant 'globex=set:S24,max-buffered=64M' \
//	  -source 'udp::9999?tenant=acme' -admin :9090
//
// Traffic is tagged to a tenant at ingest: a ?tenant= source binding
// claims a whole source, cidr= rules classify mixed sources by IP
// range, and everything untagged scans against the default -set/-rules
// set. Each tenant hot-reloads independently (PUT
// /tenants/<id>/rules mirrors POST /reload's validation gate), carries
// its own quotas wired into the memory governor and degradation
// ladder, and gets tenant-labeled mfa_tenant_* metrics plus a private
// match ring at /tenants/<id>/events.
//
// Hot reload (DESIGN.md §14): SIGHUP or POST /reload re-reads the
// original -engine/-set/-rules source, validates the candidate (decode,
// compile, self-check scan), and swaps it in as a new pattern generation
// without dropping in-flight flows; -reload-policy picks whether those
// flows finish on the old generation (drain) or restart matching on the
// new one (reset). A reload that fails validation leaves the running
// generation untouched and bumps mfa_reload_failure_total.
//
// Usage:
//
//	mfabuild -set C8 -o c8.eng
//	mfaserve -engine c8.eng -pcap trace.pcap -shards 8
//	tracegen -set S24 -out - | mfaserve -set S24 -pcap - -stats 2s
//	mfaserve -rules rules.txt -pcap - -shards 4 -max-flows 100000 -idle 500000 -drop
//	mfaserve -set C8 -pcap - -admin 127.0.0.1:9090 & curl :9090/metrics
//	mfaserve -set C8 -source 'pcap:captures/*.pcap' -source tcp::9999
//	mfaserve -set C8 -source spool:/var/spool/pcap -source afpacket:eth0 -admin :9090
package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"matchfilter/internal/core"
	"matchfilter/internal/dfa"
	"matchfilter/internal/engine"
	"matchfilter/internal/flow"
	"matchfilter/internal/guard"
	"matchfilter/internal/input"
	"matchfilter/internal/patterns"
	"matchfilter/internal/regexparse"
	"matchfilter/internal/telemetry"
	"matchfilter/internal/tenant"
)

// sourceSpecs collects the repeatable -source flag.
type sourceSpecs []string

func (s *sourceSpecs) String() string { return strings.Join(*s, ",") }
func (s *sourceSpecs) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// Exit codes: operational failures are distinguishable from input and
// health failures so supervisors can react differently.
const (
	exitOK        = 0
	exitError     = 1 // generic operational error
	exitStrict    = 2 // -strict: first malformed frame/record
	exitUnhealthy = 3 // a shard ended unhealthy (crash budget exhausted)
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mfaserve:", err)
		if code == exitOK {
			code = exitError
		}
	}
	os.Exit(code)
}

func run() (int, error) {
	set := flag.String("set", "", "built-in pattern set name ("+strings.Join(patterns.Names(), ", ")+")")
	rulesFile := flag.String("rules", "", "file with one pattern per line (# starts a comment)")
	engineFile := flag.String("engine", "", "load a compiled engine written by mfabuild -o")
	pcapPath := flag.String("pcap", "-", "pcap input to scan (- for stdin); shorthand for -source pcap:PATH")
	var srcSpecs sourceSpecs
	flag.Var(&srcSpecs, "source", "input source, repeatable: pcap:PATH|GLOB, spool:DIR, tcp:ADDR, udp:ADDR, afpacket:IFACE; per-source options ride a query suffix: ?tenant=ID (bind all traffic to a tenant), ?rate=100M (replay rate limit), ?seq (udp: 4-byte sequence headers, gap/reorder accounting)")
	var tenSpecs sourceSpecs
	flag.Var(&tenSpecs, "tenant", "tenant rule set, repeatable: 'id=RULES.txt[,cidr=10.1.0.0/16][,max-flows=N][,max-buffered=SIZE]' (RULES may be set:NAME for a built-in set; cidr may repeat)")
	sourceQueue := flag.Int("source-queue", 256, "per-source handoff queue depth (segments)")
	shards := flag.Int("shards", 0, "shard goroutines (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 4096, "per-shard queue depth (segments)")
	layoutFlag := flag.String("layout", "", "transition-table layout for compiled sets: auto, flat, classed (applies to -set/-rules, hot reloads and tenant rule sets; -engine images keep their baked layout)")
	drop := flag.Bool("drop", false, "drop segments when a shard queue is full instead of applying backpressure")
	maxFlows := flag.Int("max-flows", 0, "per-shard flow-table cap, LRU-evicted (0 = unbounded)")
	idle := flag.Int64("idle", 0, "evict flows idle for this many segments (0 = never)")
	crashBudget := flag.Int("crash-budget", 0, "recovered panics before a shard is marked unhealthy (0 = default 8)")
	softMark := flag.Float64("soft-watermark", 0, "pressure threshold for soft degradation (0 = default 0.5)")
	hardMark := flag.Float64("hard-watermark", 0, "pressure threshold for hard degradation (0 = default 0.9)")
	maxMemory := flag.String("max-memory", "", "ceiling on buffered payload memory (arena leases + flow buffers + queued segments), e.g. 256M or 1G; sources pause leasing near the ceiling and the degradation ladder reacts to memory pressure (empty = unbounded)")
	stallDeadline := flag.Duration("stall-deadline", 0, "watchdog deadline for one flush window (up to 256 queued segments): a flow whose scan or match handler holds its window longer is poisoned on recovery, 4x the deadline marks the shard wedged and sheds its traffic (0 = watchdog off)")
	drainTimeout := flag.Duration("drain-timeout", 0, "bound the shutdown drain; on expiry report per-shard progress and exit nonzero (0 = wait forever)")
	strict := flag.Bool("strict", false, "abort on the first malformed frame or record (exit code 2) instead of skip-and-count")
	statsEvery := flag.Duration("stats", 0, "print a stats line to stderr at this interval (0 = off)")
	quiet := flag.Bool("q", false, "suppress per-match lines, print only the report")
	adminAddr := flag.String("admin", "", "serve the admin HTTP surface (/metrics, /statsz, /healthz, /events, /reload, pprof) on this address, e.g. :9090 (empty = off)")
	eventsCap := flag.Int("events", 1024, "match-event ring capacity served by /events")
	reloadPolicy := flag.String("reload-policy", "drain", "in-flight flows on a pattern hot reload: drain (finish on the old generation) or reset (restart matching on the new one)")
	countersFlag := flag.Bool("counters", false, "compile large bounded repeats X{n,m} to filter counter registers instead of state expansion (applies to -set/-rules, hot reloads and tenant rule sets)")
	flag.Parse()

	policy, err := engine.ParseReloadPolicy(*reloadPolicy)
	if err != nil {
		return exitError, err
	}
	if buildLayout, err = dfa.ParseLayout(*layoutFlag); err != nil {
		return exitError, err
	}
	buildCounters = *countersFlag
	var memLimit int64
	if *maxMemory != "" {
		if memLimit, err = parseBytes(*maxMemory); err != nil {
			return exitError, fmt.Errorf("-max-memory: %w", err)
		}
	}
	m, sources, err := loadEngine(*engineFile, *set, *rulesFile)
	if err != nil {
		return exitError, err
	}
	// The same validation gate a hot reload passes through: a daemon must
	// not start serving on an image it would refuse to swap in.
	if err := m.SelfCheck(); err != nil {
		return exitError, err
	}

	// Resolve the input set. -pcap joins the -source list when it was
	// given explicitly, and stands alone (classic invocation, default
	// stdin) when no -source flag appeared — a daemon started purely with
	// socket sources must not also sit on stdin.
	pcapSet := len(srcSpecs) == 0
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "pcap" {
			pcapSet = true
		}
	})
	var srcs []parsedSource
	if pcapSet {
		s, err := input.ExpandPcaps(*pcapPath)
		if err != nil {
			return exitError, err
		}
		for _, src := range s {
			srcs = append(srcs, parsedSource{src: src})
		}
	}
	for _, spec := range srcSpecs {
		s, err := parseSource(spec)
		if err != nil {
			return exitError, err
		}
		srcs = append(srcs, s...)
	}

	// cur is the serving pattern set; a hot reload swaps it. Matches in
	// flight on an older generation still print against the current
	// sources (cosmetic: rule text may lag the automaton that matched).
	var cur atomic.Pointer[loadedRules]
	cur.Store(&loadedRules{m: m, sources: sources})

	// Matches arrive concurrently from shard goroutines; serialize the
	// report lines. treg is assigned before the engine starts (and is nil
	// in a single-tenant daemon); tenant matches resolve their rule text
	// against the tenant's own set and carry a [tenant] prefix, while
	// default-set lines keep their historic format byte for byte.
	var treg *tenant.Registry
	var mu sync.Mutex
	onMatch := func(mt engine.Match) {
		if *quiet {
			return
		}
		src, tenantID := "", ""
		if mt.Flow.Tenant != 0 && treg != nil {
			if t := treg.Lookup(mt.Flow.Tenant); t != nil {
				tenantID = t.ID()
				if ts := t.Sources(); mt.ID >= 1 && int(mt.ID) <= len(ts) {
					src = ts[mt.ID-1]
				}
			}
		} else if lr := cur.Load(); mt.ID >= 1 && int(mt.ID) <= len(lr.sources) {
			src = lr.sources[mt.ID-1]
		}
		mu.Lock()
		if tenantID != "" {
			fmt.Printf("[%s] %s offset %d: rule %d (%s)\n", tenantID, mt.Flow, mt.Pos, mt.ID, src)
		} else {
			fmt.Printf("%s offset %d: rule %d (%s)\n", mt.Flow, mt.Pos, mt.ID, src)
		}
		mu.Unlock()
	}

	// The daemon is always instrumented: the registry drives the -stats
	// ticker, and -admin additionally exposes it over HTTP.
	start := time.Now()
	reg := telemetry.NewRegistry()
	events := telemetry.NewEventRing(*eventsCap)
	telemetry.RegisterRuntimeMetrics(reg, start)

	registerBuildMetrics(reg, func() core.BuildStats { return cur.Load().m.Stats() })

	// The memory governor aggregates every payload-buffering component
	// against -max-memory: the arena (bytes out on lease), the engine's
	// flow buffers and queued unleased payload. Sources pause leasing
	// near the ceiling, and the degradation ladder sees the same pressure.
	var gov *guard.Governor
	if memLimit > 0 {
		gov = guard.NewGovernor(guard.GovernorConfig{Limit: memLimit})
	}

	// Multi-tenant serving: the registry is created before the engine (the
	// engine's dispatch gate consults it) and bound after (tenant swaps
	// ride the engine's command machinery) — then the -tenant specs
	// install each tenant's first generation.
	var tenantCIDRs []tenant.CIDRRule
	var tenantInstalls []tenantInstall
	if len(tenSpecs) > 0 {
		treg = tenant.NewRegistry(tenant.Config{Metrics: reg, Governor: gov, EventsCap: *eventsCap})
		for _, spec := range tenSpecs {
			ti, err := parseTenantSpec(spec)
			if err != nil {
				return exitError, err
			}
			tenantInstalls = append(tenantInstalls, ti)
			tenantCIDRs = append(tenantCIDRs, ti.cidrs...)
		}
	}

	cfg := engine.Config{
		Shards:        *shards,
		QueueDepth:    *queue,
		DropWhenFull:  *drop,
		Flow:          flow.Config{MaxFlows: *maxFlows},
		IdleAfter:     *idle,
		CrashBudget:   *crashBudget,
		SoftWatermark: *softMark,
		HardWatermark: *hardMark,
		StallDeadline: *stallDeadline,
		Metrics:       reg,
		Events:        events,
		Tenants:       treg,
	}
	if gov != nil {
		cfg.MemPressure = gov.Pressure
	}
	e := engine.New(cfg, func() flow.Runner { return m.NewRunner() }, onMatch)
	if treg != nil {
		treg.Bind(e)
		for _, ti := range tenantInstalls {
			if _, _, err := treg.Put(ti.id, ti.spec); err != nil {
				e.Close()
				return exitError, fmt.Errorf("-tenant %s: %w", ti.id, err)
			}
		}
		treg.SetCIDRs(tenantCIDRs)
	}
	arena := &input.Arena{}
	if gov != nil {
		gov.Register("arena", arena.BytesLeased)
		gov.Register("engine", e.MemoryUsage)
		gov.RegisterMetrics(reg) // after registration: full per-component series
	}

	rl := &reloader{
		engineFile: *engineFile,
		set:        *set,
		rulesFile:  *rulesFile,
		policy:     policy,
		e:          e,
		cur:        &cur,
	}
	reg.CounterFunc("mfa_reload_success_total",
		"Pattern hot reloads that validated and swapped in a new generation.",
		func() float64 { return float64(rl.ok.Load()) })
	reg.CounterFunc("mfa_reload_failure_total",
		"Pattern hot reloads rejected (load, compile or self-check failure); the running generation was untouched.",
		func() float64 { return float64(rl.fail.Load()) })

	// SIGHUP triggers the same validated reload as POST /reload; a
	// rejected reload only logs — the running generation keeps serving.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			if _, err := rl.Reload(); err != nil {
				fmt.Fprintf(os.Stderr, "mfaserve: SIGHUP reload: %v\n", err)
			}
		}
	}()

	// The input pipeline: every source runs under one supervisor feeding
	// the engine, with leased payload buffers the engine recycles after
	// each scan. Strict-mode policy lives here now — the first malformed
	// frame or record anywhere surfaces as a *input.StrictError.
	supCfg := input.Config{
		Sink:       e,
		Strict:     *strict,
		QueueDepth: *sourceQueue,
		Arena:      arena,
		Governor:   gov,
		Metrics:    reg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "mfaserve: "+format+"\n", args...)
		},
	}
	if treg != nil {
		supCfg.Tagger = treg.Tag
	}
	sup := input.NewSupervisor(supCfg)
	for _, ps := range srcs {
		opts := input.SourceOptions{RateBytesPerSec: ps.rate}
		if ps.tenantID != "" {
			// A per-source binding needs the tenant's dispatch index, so
			// the tenant must exist at startup (declared via -tenant).
			if treg == nil {
				e.Close()
				return exitError, fmt.Errorf("-source ?tenant=%s: no -tenant flags declared", ps.tenantID)
			}
			t := treg.ByID(ps.tenantID)
			if t == nil {
				e.Close()
				return exitError, fmt.Errorf("-source ?tenant=%s: unknown tenant (declare it with -tenant)", ps.tenantID)
			}
			opts.Tenant = t.Index()
		}
		sup.AddOptions(ps.src, opts)
	}

	var admin *telemetry.Server
	if *adminAddr != "" {
		a := &telemetry.Admin{
			Registry: reg,
			Events:   events,
			// The health rule IS the exit-code-3 rule: a supervisor
			// watching /healthz and one watching the exit status must
			// agree on what "unhealthy" means.
			Health: func() error {
				if n := e.Stats().UnhealthyShards; n > 0 {
					return fmt.Errorf("%d shard(s) unhealthy", n)
				}
				return nil
			},
			// Degraded-but-serving: open circuit breakers and recent
			// watchdog recoveries keep /healthz at 200 (the daemon is
			// self-healing, a load balancer must not evict it) but the
			// body says so. The 503 predicate above is unchanged.
			Degraded: func() string {
				var reasons []string
				if n := sup.OpenBreakers(); n > 0 {
					reasons = append(reasons, fmt.Sprintf("%d source circuit breaker(s) open", n))
				}
				if lr := e.LastStallRecovery(); !lr.IsZero() && time.Since(lr) < time.Minute {
					reasons = append(reasons, fmt.Sprintf("scan stall recovered %s ago", time.Since(lr).Round(time.Second)))
				}
				return strings.Join(reasons, "; ")
			},
			// /statsz reports the serving state end to end: per-source
			// input accounting (including breaker state), arena lease
			// counters, the memory governor (when -max-memory is set),
			// the live engine counters, and the static build shape
			// (table layout, class count, image split) of the loaded MFA.
			Statsz: func() any {
				var gst *guard.GovernorStats
				if gov != nil {
					s := gov.Stats()
					gst = &s
				}
				var tst []tenant.Stats
				if treg != nil {
					tst = treg.List()
				}
				return struct {
					Inputs   []input.SourceStats
					Arena    input.ArenaStats
					Governor *guard.GovernorStats `json:",omitempty"`
					Engine   engine.Stats
					Tenants  []tenant.Stats `json:",omitempty"`
					Build    core.BuildStats
				}{sup.Stats(), sup.Arena().Stats(), gst, e.Stats(), tst, cur.Load().m.Stats()}
			},
			Reload: rl.Reload,
		}
		if treg != nil {
			a.Tenants = treg.AdminHandler(compileRules)
		}
		var err error
		if admin, err = a.Start(*adminAddr); err != nil {
			e.Close()
			return exitError, err
		}
		fmt.Fprintf(os.Stderr, "mfaserve: admin surface on http://%s\n", admin.Addr())
	}

	stop := make(chan struct{})
	if *statsEvery > 0 {
		go progressLoop(reg, *statsEvery, stop)
	}

	// SIGINT/SIGTERM stop the pipeline gracefully: sources observe the
	// cancellation and return, the supervisor drains, then the engine
	// drains under -drain-timeout like any other shutdown.
	ctx, cancelSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancelSignals()

	scanStart := time.Now()
	scanErr := sup.Run(ctx)
	malformed := sup.Malformed()

	closeCtx := context.Background()
	if *drainTimeout > 0 {
		var cancel context.CancelFunc
		closeCtx, cancel = context.WithTimeout(closeCtx, *drainTimeout)
		defer cancel()
	}
	closeErr := e.CloseContext(closeCtx)
	close(stop)
	elapsed := time.Since(scanStart)
	if admin != nil {
		// The admin surface drains under the same bound as the engine:
		// in-flight scrapes finish, long-poll pprof profiles are cut off
		// at the deadline (5s when no -drain-timeout was given).
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if *drainTimeout > 0 {
			cancel()
			shutCtx, cancel = context.WithTimeout(context.Background(), *drainTimeout)
		}
		if err := admin.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(os.Stderr, "mfaserve: admin shutdown: %v\n", err)
		}
		cancel()
	}

	st := e.Stats()
	inputReport(os.Stdout, sup.Stats(), sup.Arena().Stats())
	report(os.Stdout, st, elapsed)
	healthLine(os.Stdout, st, malformed)

	var strictErr *input.StrictError
	switch {
	case errors.As(scanErr, &strictErr):
		return exitStrict, scanErr
	case scanErr != nil:
		return exitError, scanErr
	case closeErr != nil:
		return exitError, closeErr
	case st.UnhealthyShards > 0:
		return exitUnhealthy, fmt.Errorf("%d shard(s) ended unhealthy", st.UnhealthyShards)
	}
	// A source abandoned as failed (bad path, permanent error, exhausted
	// restart budget) is an operational error even though the rest of the
	// pipeline kept serving — the classic single-capture invocation keeps
	// its open-failure exit status.
	for _, row := range sup.Stats() {
		if row.State == "failed" {
			return exitError, fmt.Errorf("source %s failed: %s", row.Name, row.LastError)
		}
	}
	return exitOK, nil
}

// parseBytes parses a byte size with an optional K/M/G suffix (powers
// of two, case-insensitive): "512K", "256M", "1G", or a plain number.
func parseBytes(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("want a positive size like 268435456, 256M or 1G")
	}
	return n * mult, nil
}

// parsedSource is one registered source plus its ingest options from
// the spec's query suffix (the tenant id resolves to an index only
// after the registry is populated, so it rides along as a name).
type parsedSource struct {
	src      input.Source
	tenantID string
	rate     int64
}

// parseSource turns one -source spec into sources. A pcap glob expands
// to one source per file, scanned in parallel. A URL-style query suffix
// carries per-source options: ?tenant=ID, ?rate=100M, ?seq (udp only).
func parseSource(spec string) ([]parsedSource, error) {
	kind, rest, ok := strings.Cut(spec, ":")
	if !ok || rest == "" {
		return nil, fmt.Errorf("-source %q: want kind:arg (pcap:PATH, spool:DIR, tcp:ADDR, udp:ADDR, afpacket:IFACE)", spec)
	}
	rest, query, hasQuery := strings.Cut(rest, "?")
	var ps parsedSource
	seq := false
	if hasQuery {
		q, err := url.ParseQuery(query)
		if err != nil {
			return nil, fmt.Errorf("-source %q: bad options: %w", spec, err)
		}
		for k := range q {
			switch k {
			case "tenant":
				ps.tenantID = q.Get("tenant")
			case "rate":
				r, err := parseBytes(q.Get("rate"))
				if err != nil {
					return nil, fmt.Errorf("-source %q: rate: %w", spec, err)
				}
				ps.rate = r
			case "seq":
				if kind != "udp" {
					return nil, fmt.Errorf("-source %q: ?seq applies to udp sources only", spec)
				}
				seq = true
			default:
				return nil, fmt.Errorf("-source %q: unknown option %q (tenant, rate, seq)", spec, k)
			}
		}
	}
	if rest == "" {
		return nil, fmt.Errorf("-source %q: empty address", spec)
	}
	var srcs []input.Source
	switch kind {
	case "pcap":
		var err error
		if srcs, err = input.ExpandPcaps(rest); err != nil {
			return nil, err
		}
	case "spool":
		srcs = []input.Source{input.NewSpool(rest)}
	case "tcp":
		srcs = []input.Source{input.NewTCPListener(rest)}
	case "udp":
		u := input.NewUDPListener(rest)
		u.Seq = seq
		srcs = []input.Source{u}
	case "afpacket":
		srcs = []input.Source{input.NewAFPacket(rest)}
	default:
		return nil, fmt.Errorf("-source %q: unknown kind %q (pcap, spool, tcp, udp, afpacket)", spec, kind)
	}
	out := make([]parsedSource, len(srcs))
	for i, s := range srcs {
		out[i] = parsedSource{src: s, tenantID: ps.tenantID, rate: ps.rate}
	}
	return out, nil
}

// tenantInstall is one parsed -tenant flag, ready to Put once the
// registry is bound to the engine.
type tenantInstall struct {
	id    string
	spec  tenant.PutSpec
	cidrs []tenant.CIDRRule
}

// parseTenantSpec parses and compiles one -tenant flag:
// 'id=RULES[,cidr=CIDR][,max-flows=N][,max-buffered=SIZE]'. RULES is a
// rules file path, or set:NAME for a built-in set. The rule set is
// compiled and self-checked here, so a bad tenant spec fails startup
// the same way a bad -rules file does.
func parseTenantSpec(spec string) (tenantInstall, error) {
	var ti tenantInstall
	fields := strings.Split(spec, ",")
	id, rulesSrc, ok := strings.Cut(fields[0], "=")
	if !ok || id == "" || rulesSrc == "" {
		return ti, fmt.Errorf("-tenant %q: want id=RULES[,options]", spec)
	}
	ti.id = id
	var body []byte
	if name, isSet := strings.CutPrefix(rulesSrc, "set:"); isSet {
		prules, err := patterns.Load(name)
		if err != nil {
			return ti, fmt.Errorf("-tenant %s: %w", id, err)
		}
		var b strings.Builder
		for _, r := range prules {
			b.WriteString(r.Source)
			b.WriteByte('\n')
		}
		body = []byte(b.String())
	} else {
		var err error
		if body, err = os.ReadFile(rulesSrc); err != nil {
			return ti, fmt.Errorf("-tenant %s: %w", id, err)
		}
	}
	ti.spec.Rules = body
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return ti, fmt.Errorf("-tenant %s: bad option %q", id, f)
		}
		switch k {
		case "cidr":
			rule, err := tenant.ParseCIDRRule(v + "=" + id)
			if err != nil {
				return ti, fmt.Errorf("-tenant %s: %w", id, err)
			}
			ti.cidrs = append(ti.cidrs, rule)
		case "max-flows":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				return ti, fmt.Errorf("-tenant %s: bad max-flows %q", id, v)
			}
			ti.spec.Quota.MaxFlows = n
		case "max-buffered":
			n, err := parseBytes(v)
			if err != nil {
				return ti, fmt.Errorf("-tenant %s: max-buffered: %w", id, err)
			}
			ti.spec.Quota.MaxBufferedBytes = n
		default:
			return ti, fmt.Errorf("-tenant %s: unknown option %q (cidr, max-flows, max-buffered)", id, k)
		}
	}
	var err error
	if ti.spec.NewRunner, ti.spec.Sources, err = compileRules(body); err != nil {
		return ti, fmt.Errorf("-tenant %s: %w", id, err)
	}
	return ti, nil
}

// buildLayout is the transition-table layout every compile in this
// process uses (-layout, parsed once at startup; zero value is auto).
// Engine images loaded with -engine keep the layout they were built
// with.
var buildLayout dfa.Layout

// buildCounters mirrors buildLayout for the counter-register extension
// (-counters): every compile in this process — startup set, hot reloads,
// tenant rule sets — shares the same bounded-repeat encoding.
var buildCounters bool

func buildOptions() core.Options {
	opts := core.Options{DFA: dfa.Options{Layout: buildLayout}}
	opts.Splitter.EnableCounters = buildCounters
	return opts
}

// compileRules is the tenant rule-set gate: parse the rule text, compile
// it, and self-check the automaton — exactly the pipeline POST /reload
// runs for the default set. It serves both -tenant startup specs and
// PUT /tenants/<id>/rules (as the registry's tenant.Compiler).
func compileRules(body []byte) (func() flow.Runner, []string, error) {
	var rules []core.Rule
	var sources []string
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		p, err := regexparse.ParsePCRE(line)
		if err != nil {
			return nil, nil, err
		}
		rules = append(rules, core.Rule{Pattern: p, ID: int32(len(rules) + 1)})
		sources = append(sources, line)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(rules) == 0 {
		return nil, nil, fmt.Errorf("no patterns")
	}
	m, err := core.Compile(rules, buildOptions())
	if err != nil {
		return nil, nil, err
	}
	if err := m.SelfCheck(); err != nil {
		return nil, nil, err
	}
	return func() flow.Runner { return m.NewRunner() }, sources, nil
}

// progressLoop prints one stats line per tick until stop closes. The
// line renders from a telemetry snapshot — the same numbers /metrics
// serves — so the ticker and a scraper can never tell different
// stories; the match rate is the delta between consecutive snapshots.
func progressLoop(reg *telemetry.Registry, every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	lastMatches := 0.0
	lastTick := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			snap := reg.Snapshot()
			now := time.Now()
			matches := snap.Value("mfa_engine_matches_total")
			rate := (matches - lastMatches) / now.Sub(lastTick).Seconds()
			lastMatches, lastTick = matches, now
			tier := engine.Tier(int32(snap.Value("mfa_engine_tier")))
			fmt.Fprintf(os.Stderr,
				"mfaserve: pkts=%.0f bytes=%.0f flows=%.0f/%.0f matches=%.0f (%.1f/s) queued=%.0f drops=%.0f tier=%s poisoned=%.0f\n",
				snap.Value("mfa_engine_packets_total"),
				snap.Value("mfa_engine_payload_bytes_total"),
				snap.Value("mfa_reasm_live_flows"),
				snap.Value("mfa_engine_flows_total"),
				matches, rate,
				snap.Value("mfa_engine_queue_depth"),
				snap.Value("mfa_engine_queue_drops_total")+snap.Value("mfa_engine_hard_drops_total"),
				tier,
				snap.Value("mfa_engine_poisoned_flows_total"))
		}
	}
}

// loadedRules is the pattern set currently serving: the automaton plus
// the source text its rule ids index. Swapped as one unit by a reload so
// a match report never pairs an id from one set with text from another.
type loadedRules struct {
	m       *core.MFA
	sources []string
}

// reloader re-runs the daemon's own load path against the original
// -engine/-set/-rules argument and, when the candidate survives the
// validation gate, swaps it into the engine as a new generation. The
// gate runs entirely before the swap: a bad rules file (or a truncated
// engine image, or an automaton that fails its self-check scan) is
// rejected with the running generation untouched.
type reloader struct {
	mu         sync.Mutex // serializes SIGHUP against POST /reload
	engineFile string
	set        string
	rulesFile  string
	policy     engine.ReloadPolicy
	e          *engine.Engine
	cur        *atomic.Pointer[loadedRules]
	ok, fail   atomic.Int64
}

func (r *reloader) Reload() (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, sources, err := loadEngine(r.engineFile, r.set, r.rulesFile)
	if err == nil {
		err = m.SelfCheck()
	}
	if err != nil {
		r.fail.Add(1)
		return 0, fmt.Errorf("reload rejected, generation %d keeps serving: %w", r.e.Generation(), err)
	}
	gen, err := r.e.Reload(func() flow.Runner { return m.NewRunner() }, r.policy)
	if err != nil {
		r.fail.Add(1)
		return 0, err
	}
	r.cur.Store(&loadedRules{m: m, sources: sources})
	r.ok.Add(1)
	fmt.Fprintf(os.Stderr, "mfaserve: reloaded %d rules as generation %d (policy %s)\n",
		len(sources), gen, r.policy)
	return gen, nil
}

// registerBuildMetrics exposes the static shape of the serving automaton:
// what the scan loop is actually walking (table layout, byte-class count,
// table bytes) and the image split. The values are callbacks over the
// current pattern set, so a hot reload is reflected on the next scrape.
func registerBuildMetrics(reg *telemetry.Registry, cur func() core.BuildStats) {
	g := func(name, help string, v func(core.BuildStats) int) {
		reg.GaugeFunc(name, help, func() float64 { return float64(v(cur())) })
	}
	g("mfa_build_dfa_states", "states in the character DFA", func(st core.BuildStats) int { return st.DFAStates })
	g("mfa_build_dfa_table_bytes", "transition-table image bytes in its serving layout (classed includes the class map)", func(st core.BuildStats) int { return st.DFATableBytes })
	g("mfa_build_dfa_classes", "byte equivalence classes of the transition table (256 = flat)", func(st core.BuildStats) int { return st.DFAClasses })
	g("mfa_build_image_bytes", "total static memory image (DFA + filter program)", func(st core.BuildStats) int { return st.MemoryImageBytes() })
	g("mfa_build_mem_bits", "per-flow filter memory width w", func(st core.BuildStats) int { return st.MemBits })
	g("mfa_build_counters", "filter counter registers compiled from bounded repeats", func(st core.BuildStats) int { return st.Counters })
	g("mfa_build_accept_programs", "distinct decision sets compiled to accept programs", func(st core.BuildStats) int { return st.AcceptPrograms })
	g("mfa_build_accept_program_bytes", "resident bytes of the accept programs, derived at load and not part of the image", func(st core.BuildStats) int { return st.AcceptProgramBytes })
	reg.GaugeFunc("mfa_build_seconds", "wall time core.Compile spent on the serving pattern set: what the last start or reload cost (0 for a loaded -engine image)",
		func() float64 { return cur().BuildTime.Seconds() })
	// Info-style metric: the layout name rides in the label, value is 1
	// on the serving layout's series. All layouts are registered so the
	// series set is stable across reloads that change layout.
	for _, layout := range []string{"flat", "classed"} {
		layout := layout
		reg.GaugeFunc("mfa_build_dfa_layout_info",
			"transition-table layout of the serving engine (1 on the active layout's series)",
			func() float64 {
				if cur().DFALayout == layout {
					return 1
				}
				return 0
			},
			telemetry.L("layout", layout))
	}
}

// inputReport renders one accounting row per source plus the arena's
// lease balance. The per-source segment and byte counters sum to the
// engine's packet and payload totals: the pump counts only what the sink
// accepted.
func inputReport(w io.Writer, rows []input.SourceStats, arena input.ArenaStats) {
	for _, row := range rows {
		fmt.Fprintf(w, "source %s: %s, %d segments, %d payload bytes, %d skipped, %d malformed, %d restarts",
			row.Name, row.State, row.Segments, row.PayloadBytes, row.SkippedFrames, row.Malformed, row.Restarts)
		if row.LastError != "" {
			fmt.Fprintf(w, " (last error: %s)", row.LastError)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "arena: %d leases (%d fresh), %d released\n",
		arena.Leases, arena.Misses, arena.Releases)
}

// report renders the end-of-run stats block.
func report(w io.Writer, st engine.Stats, elapsed time.Duration) {
	mbps := float64(st.PayloadBytes) / (1 << 20) / elapsed.Seconds()
	fmt.Fprintf(w, "scanned %d TCP packets, %d payload bytes in %v (%.1f MB/s, %d shards)\n",
		st.Packets, st.PayloadBytes, elapsed.Round(time.Millisecond), mbps, st.Shards)
	fmt.Fprintf(w, "flows: %d live, %d total, evicted %d (cap) + %d (idle), runners recycled: %d\n",
		st.FlowsLive, st.FlowsTotal, st.EvictedCap, st.EvictedIdle, st.RunnersReused)
	fmt.Fprintf(w, "out-of-order segments: %d, dropped: %d, non-TCP frames: %d, queue drops: %d\n",
		st.OutOfOrder, st.DroppedSegs, st.SkippedFrames, st.QueueDrops)
	fmt.Fprintf(w, "confirmed matches: %d\n", st.Matches)
	fmt.Fprintf(w, "per-shard (packets/matches):")
	for i := range st.ShardPackets {
		fmt.Fprintf(w, " s%d=%d/%d", i, st.ShardPackets[i], st.ShardMatches[i])
	}
	fmt.Fprintln(w)
}

// healthLine emits the structured one-line health summary: everything a
// supervisor needs to judge the run without parsing the prose report.
func healthLine(w io.Writer, st engine.Stats, malformed int64) {
	status := "ok"
	if st.UnhealthyShards > 0 {
		status = "unhealthy"
	} else if st.PoisonedFlows > 0 || st.TierEnters[engine.TierHard] > 0 ||
		st.StallsRecovered > 0 || st.WedgeDrops > 0 {
		status = "degraded"
	}
	fmt.Fprintf(w,
		"health: %s poisoned_flows=%d shard_panics=%d shard_restarts=%d unhealthy_shards=%d "+
			"drops{queue=%d hard=%d poisoned=%d unhealthy=%d wedge=%d reasm=%d} malformed=%d "+
			"stalls{fires=%d recovered=%d wedged_shards=%d} "+
			"tier{now=%s soft_enters=%d hard_enters=%d soft_time=%s hard_time=%s}\n",
		status, st.PoisonedFlows, st.ShardPanics, st.ShardRestarts, st.UnhealthyShards,
		st.QueueDrops, st.HardDrops, st.PoisonedDrops, st.UnhealthyDrops, st.WedgeDrops, st.DroppedSegs, malformed,
		st.StallFires, st.StallsRecovered, st.WedgedShards,
		st.Tier, st.TierEnters[engine.TierSoft], st.TierEnters[engine.TierHard],
		st.TierTime[engine.TierSoft].Round(time.Millisecond),
		st.TierTime[engine.TierHard].Round(time.Millisecond))
}

// loadEngine resolves the three pattern sources: a compiled image, a
// built-in set, or a rules file.
func loadEngine(engineFile, set, rulesFile string) (*core.MFA, []string, error) {
	if engineFile != "" {
		if set != "" || rulesFile != "" {
			return nil, nil, fmt.Errorf("-engine replaces -set/-rules")
		}
		f, err := os.Open(engineFile)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		br := bufio.NewReaderSize(f, 1<<20)
		sources, err := core.ReadStrings(br)
		if err != nil {
			return nil, nil, err
		}
		m, err := core.ReadMFA(br)
		if err != nil {
			return nil, nil, err
		}
		return m, sources, nil
	}

	var rules []core.Rule
	var sources []string
	switch {
	case set != "" && rulesFile != "":
		return nil, nil, fmt.Errorf("use either -set or -rules, not both")
	case set != "":
		prules, err := patterns.Load(set)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range prules {
			rules = append(rules, core.Rule{Pattern: r.Pattern, ID: r.ID})
			sources = append(sources, r.Source)
		}
	case rulesFile != "":
		f, err := os.Open(rulesFile)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			p, err := regexparse.ParsePCRE(line)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", rulesFile, err)
			}
			rules = append(rules, core.Rule{Pattern: p, ID: int32(len(rules) + 1)})
			sources = append(sources, line)
		}
		if err := sc.Err(); err != nil {
			return nil, nil, err
		}
		if len(rules) == 0 {
			return nil, nil, fmt.Errorf("%s: no patterns", rulesFile)
		}
	default:
		return nil, nil, fmt.Errorf("one of -engine, -set or -rules is required")
	}
	m, err := core.Compile(rules, buildOptions())
	if err != nil {
		return nil, nil, err
	}
	return m, sources, nil
}
