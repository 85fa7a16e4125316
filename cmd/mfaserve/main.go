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
// Each source owns a bounded handoff queue into the engine, so a bursty
// source backpressures alone; a failing source is restarted with backoff
// and eventually abandoned while the others keep serving. Payload buffers
// are leased from a pooled arena and recycled by the engine after each scan.
//
// Robustness posture (DESIGN.md §10, §16): malformed frames and records
// are skipped and counted by default (-strict aborts on the first one
// with exit code 2); shard panics quarantine single flows under a crash
// budget; memory pressure under -max-memory steps through the soft/hard
// degradation ladder; and shutdown is bounded by -drain-timeout. -stall-deadline arms a scan
// watchdog that poisons a flow stuck mid-scan and sheds traffic from a
// wedged shard; -max-memory caps buffered payload memory end to end
// (sources pause leasing near the ceiling); an infinite source that
// keeps failing moves to a half-open circuit breaker instead of dying.
// The exit status reports serving health: 0 healthy, 1 operational
// error, 2 strict-mode parse abort, 3 at least one shard ended
// unhealthy.
//
// Observability (DESIGN.md §12): the daemon always instruments itself
// through internal/telemetry — each component's Stats struct is the one
// listing of its counters, which the -stats ticker and the exit report
// print from — and -admin additionally serves the surface over
// HTTP: /metrics (Prometheus text), /statsz (the same structs as JSON),
// /healthz (503 exactly when the exit code would be 3), /events (tail of
// the match-event ring) and /debug/pprof. The admin server drains
// gracefully under the same -drain-timeout bound as the engine.
//
// Rule sets (DESIGN.md §14): every rule set the daemon serves is an
// entry of one tenant registry, installed through one gate (parse,
// compile, self-check scan) and one swap path. The default set — what
// untagged traffic scans against, from -engine/-set/-rules — is the
// entry "default"; the repeatable -tenant flag declares more —
//
//	mfaserve -set C8 \
//	  -tenant 'acme=acme-rules.txt,cidr=10.1.0.0/16,max-flows=50000' \
//	  -tenant 'globex=set:S24,max-buffered=64M' \
//	  -source 'udp::9999?tenant=acme' -admin :9090
//
// Traffic is tagged to a tenant at ingest: a ?tenant= source binding
// claims a whole source, cidr= rules classify mixed sources by IP
// range. Each tenant carries its own quotas wired into the memory
// governor and degradation ladder, tenant-labeled mfa_tenant_* metrics
// and a private match ring at /tenants/<id>/events.
//
// Hot reload: SIGHUP or POST /reload re-reads the original
// -engine/-set/-rules source and PUT /tenants/<id>/rules installs its
// body (<id> may be "default"); either way the candidate passes the gate
// and swaps in as the entry's next generation without dropping in-flight
// flows. Those finish on the old generation unless the request says
// ?reset=1, which restarts their matching on the new one. A set that
// fails the gate leaves the running generation untouched (and, on
// /reload, bumps mfa_reload_failure_total).
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
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"matchfilter/internal/core"
	"matchfilter/internal/engine"
	"matchfilter/internal/flow"
	"matchfilter/internal/guard"
	"matchfilter/internal/input"
	"matchfilter/internal/patterns"
	"matchfilter/internal/rules"
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
	code, err := run(context.Background(), os.Args[1:], os.Stdin, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mfaserve:", err)
		if code == exitOK {
			code = exitError
		}
	}
	os.Exit(code)
}

// run is the whole daemon behind a seam a test can hold: flags come from
// args, "-" inputs read stdin, match lines and the report go to stdout,
// logs to stderr, and it returns — every goroutine it started stopped —
// when its sources end, ctx is cancelled or SIGINT/SIGTERM arrives.
func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("mfaserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	set := fs.String("set", "", "built-in pattern set name ("+strings.Join(patterns.Names(), ", ")+")")
	rulesFile := fs.String("rules", "", "file with one pattern per line (# starts a comment)")
	engineFile := fs.String("engine", "", "load a compiled engine written by mfabuild -o")
	pcapPath := fs.String("pcap", "-", "pcap input to scan (- for stdin); shorthand for -source pcap:PATH")
	var srcSpecs sourceSpecs
	fs.Var(&srcSpecs, "source", "input source, repeatable: pcap:PATH|GLOB, spool:DIR, tcp:ADDR, udp:ADDR, afpacket:IFACE; per-source options ride a query suffix: ?tenant=ID (bind all traffic to a tenant), ?rate=100M (replay rate limit), ?seq (udp: 4-byte sequence headers, gap/reorder accounting)")
	var tenSpecs sourceSpecs
	fs.Var(&tenSpecs, "tenant", "tenant rule set, repeatable: 'id=RULES.txt[,cidr=10.1.0.0/16][,max-flows=N][,max-buffered=SIZE]' (RULES may be set:NAME for a built-in set; cidr may repeat; a quota of 0 is unlimited)")
	shards := fs.Int("shards", 0, "shard goroutines (0 = GOMAXPROCS)")
	queue := fs.Int("queue", engine.DefaultQueueDepth, "per-shard queue depth (segments)")
	drop := fs.Bool("drop", false, "drop segments when a shard queue is full instead of applying backpressure")
	maxFlows := fs.Int("max-flows", 0, "per-shard flow-table cap, LRU-evicted (0 = unbounded)")
	idle := fs.Int64("idle", 0, "evict flows idle for this many segments (0 = never)")
	maxMemory := fs.String("max-memory", "", "ceiling on buffered payload memory (arena leases + flow buffers + queued segments), e.g. 256M or 1G; sources pause leasing near the ceiling and the degradation ladder reacts to memory pressure (empty = unbounded)")
	stallDeadline := fs.Duration("stall-deadline", 0, "watchdog deadline for one flush window (up to 256 queued segments): a flow whose scan or match handler holds its window longer is poisoned on recovery, 4x the deadline marks the shard wedged and sheds its traffic (0 = watchdog off)")
	drainTimeout := fs.Duration("drain-timeout", 0, "bound the shutdown drain; on expiry report per-shard progress and exit nonzero (0 = wait forever)")
	strict := fs.Bool("strict", false, "abort on the first malformed frame or record (exit code 2) instead of skip-and-count")
	statsEvery := fs.Duration("stats", 0, "print a stats line to stderr at this interval (0 = off)")
	quiet := fs.Bool("q", false, "suppress per-match lines, print only the report")
	adminAddr := fs.String("admin", "", "serve the admin HTTP surface (/metrics, /statsz, /healthz, /events, /reload, /tenants, pprof) on this address, e.g. :9090 (empty = off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitOK, nil
		}
		return 2, nil // the flag package has reported it, with the usage
	}

	var err error
	var memLimit int64
	if *maxMemory != "" {
		if memLimit, err = parseCeiling(*maxMemory); err != nil {
			return exitError, fmt.Errorf("-max-memory: %w", err)
		}
	}
	// defSrc is where the default rule set comes from, and where a reload
	// re-reads it: the -engine image when empty.
	var defSrc string
	if *engineFile == "" {
		if defSrc, err = rules.Source(*set, *rulesFile); err != nil {
			return exitError, err
		}
	} else if *set != "" || *rulesFile != "" {
		return exitError, errors.New("-engine replaces -set/-rules")
	}

	// Resolve the input set. -pcap joins the -source list when it was
	// given explicitly, and stands alone (classic invocation, default
	// stdin) when no -source flag appeared — a daemon started purely with
	// socket sources must not also sit on stdin.
	pcapSet := len(srcSpecs) == 0
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "pcap" {
			pcapSet = true
		}
	})
	var srcs []parsedSource
	if pcapSet {
		s, err := expandPcaps(*pcapPath, stdin)
		if err != nil {
			return exitError, err
		}
		for _, src := range s {
			srcs = append(srcs, parsedSource{src: src})
		}
	}
	for _, spec := range srcSpecs {
		s, err := parseSource(spec, stdin)
		if err != nil {
			return exitError, err
		}
		srcs = append(srcs, s...)
	}
	var tenants []tenantSpec
	var cidrs []tenant.CIDRRule
	for _, spec := range tenSpecs {
		ts, err := parseTenantSpec(spec)
		if err != nil {
			return exitError, err
		}
		tenants = append(tenants, ts)
		cidrs = append(cidrs, ts.cidrs...)
	}

	// The daemon is always instrumented; -admin additionally exposes the
	// registry over HTTP.
	reg := telemetry.NewRegistry()
	events := telemetry.NewEventRing(tenant.EventRingLen)
	telemetry.RegisterRuntimeMetrics(reg, time.Now())

	// The memory governor aggregates every payload-buffering component
	// against -max-memory: the arena (bytes out on lease), the engine's
	// flow buffers and queued unleased payload, each tenant's reassembly
	// buffers. Sources pause leasing near the ceiling, and the degradation
	// ladder sees the same pressure.
	var gov *guard.Governor
	if memLimit > 0 {
		gov = guard.NewGovernor(memLimit, reg)
	}

	// Every rule set is an entry of treg, the default one included; the
	// registry is created before the engine (whose dispatch gate consults
	// it) and bound after (swaps ride the engine's command path).
	treg := tenant.NewRegistry(tenant.Config{Metrics: reg, Governor: gov})

	// Matches arrive concurrently from shard goroutines; serialize the
	// report lines. A match resolves its rule text against its entry's
	// current set (cosmetic: the text may lag the generation that matched);
	// tenant lines carry a [tenant] prefix, default-set lines none.
	var mu sync.Mutex
	onMatch := func(mt engine.Match) {
		if *quiet {
			return
		}
		prefix, src := "", ""
		if t := treg.Lookup(mt.Flow.Tenant); t != nil {
			if mt.Flow.Tenant != 0 {
				prefix = "[" + t.ID() + "] "
			}
			if ts := t.Sources(); mt.ID >= 1 && int(mt.ID) <= len(ts) {
				src = ts[mt.ID-1]
			}
		}
		mu.Lock()
		fmt.Fprintf(stdout, "%s%s offset %d: rule %d (%s)\n", prefix, mt.Flow, mt.Pos, mt.ID, src)
		mu.Unlock()
	}

	cfg := engine.Config{
		Shards:        *shards,
		QueueDepth:    *queue,
		DropWhenFull:  *drop,
		MaxFlows:      *maxFlows,
		IdleAfter:     *idle,
		StallDeadline: *stallDeadline,
		Metrics:       reg,
		Events:        events,
		Tenants:       treg,
	}
	if gov != nil {
		cfg.MemPressure = gov.Pressure
	}
	// The engine starts with no rule set at all: boot is the first Put.
	e := engine.New(cfg, nil, onMatch)
	treg.Bind(e)
	arena := &input.Arena{}
	if gov != nil {
		gov.Register("arena", arena.BytesLeased)
		gov.Register("engine", e.MemoryUsage)
	}

	// putDefault resolves the default set's source afresh, passes it
	// through the gate and installs it: startup, SIGHUP and POST /reload.
	putDefault := func(reset bool) (*tenant.Tenant, uint64, error) {
		var spec tenant.PutSpec
		var err error
		if defSrc == "" {
			spec, err = admitImage(*engineFile)
		} else {
			spec, err = admitSource(defSrc)
		}
		if err != nil {
			return nil, 0, err
		}
		spec.Reset = reset
		return treg.Put(tenant.DefaultID, spec)
	}
	var reloadMu sync.Mutex // serializes SIGHUP against POST /reload
	reloadOK := reg.Counter("mfa_reload_success_total",
		"Pattern hot reloads that validated and swapped in a new generation.")
	reloadFail := reg.Counter("mfa_reload_failure_total",
		"Pattern hot reloads rejected (load, compile or self-check failure); the running generation was untouched.")
	reload := func(reset bool) (uint64, error) {
		reloadMu.Lock()
		defer reloadMu.Unlock()
		t, gen, err := putDefault(reset)
		if err != nil {
			reloadFail.Inc()
			return 0, fmt.Errorf("reload rejected, generation %d keeps serving: %w", e.Generation(), err)
		}
		reloadOK.Inc()
		fmt.Fprintf(stderr, "mfaserve: reloaded %d rules as generation %d (reset=%t)\n", len(t.Sources()), gen, reset)
		return gen, nil
	}

	// SIGHUP is POST /reload without ?reset: in-flight flows drain. The
	// signal is caught from here on; the loop that serves it starts with
	// the sources.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	// The input pipeline: every source runs under one supervisor feeding
	// the engine, with leased payload buffers the engine recycles after
	// each scan. Strict-mode policy lives here — the first malformed
	// frame or record anywhere surfaces as a *input.StrictError.
	supCfg := input.Config{
		Sink:     e,
		Strict:   *strict,
		Arena:    arena,
		Governor: gov,
		Metrics:  reg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "mfaserve: "+format+"\n", args...)
		},
	}
	if len(cidrs) > 0 {
		// Only -tenant specs declare CIDR rules, so without one no segment
		// can classify and ingest skips the per-segment lookup.
		supCfg.Tagger = treg.Tag
	}
	sup := input.NewSupervisor(supCfg)

	var admin *telemetry.Server
	// boot installs the rule sets — the default entry first, so it is
	// generation 1 — binds the sources and opens the admin surface.
	boot := func() error {
		if _, _, err := putDefault(false); err != nil {
			return err
		}
		telemetry.Rows(reg, func() core.BuildStats { return treg.Lookup(0).Build() }, buildRows)
		for _, ts := range tenants {
			spec, err := admitSource(ts.src)
			if err == nil {
				spec.Quota = ts.quota
				_, _, err = treg.Put(ts.id, spec)
			}
			if err != nil {
				return fmt.Errorf("-tenant %s: %w", ts.id, err)
			}
		}
		treg.SetCIDRs(cidrs)
		for _, ps := range srcs {
			opts := input.SourceOptions{RateBytesPerSec: ps.rate}
			if ps.tenantID != "" {
				// A per-source binding needs the tenant's dispatch index, so
				// the tenant must exist at startup (declared via -tenant).
				t := treg.ByID(ps.tenantID)
				if t == nil {
					return fmt.Errorf("-source ?tenant=%s: unknown tenant (declare it with -tenant)", ps.tenantID)
				}
				opts.Tenant = t.Index()
			}
			sup.AddOptions(ps.src, opts)
		}
		if *adminAddr == "" {
			return nil
		}
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
				if ago, recent := e.RecentStallRecovery(); recent {
					reasons = append(reasons, fmt.Sprintf("scan stall recovered %s ago", ago.Round(time.Second)))
				}
				return strings.Join(reasons, "; ")
			},
			// /statsz reports the serving state end to end, as the structs
			// the /metrics row tables read: per-source input accounting
			// (including breaker state), arena lease counters, the memory
			// governor (when -max-memory is set), the live engine
			// counters, the declared tenants, and the build shape (table
			// layout, class count, image split) of the default set —
			// whose registry row is Engine and Build here.
			Statsz: func() any {
				var gst *guard.GovernorStats
				if gov != nil {
					s := gov.Stats()
					gst = &s
				}
				return struct {
					Inputs   []input.SourceStats
					Arena    input.ArenaStats
					Governor *guard.GovernorStats `json:",omitempty"`
					Engine   engine.Stats
					Tenants  []tenant.Stats `json:",omitempty"`
					Build    core.BuildStats
				}{sup.Stats(), sup.Arena().Stats(), gst, e.Stats(), treg.List()[1:], treg.Lookup(0).Build()}
			},
			Reload:  reload,
			Tenants: treg.AdminHandler(admitText),
		}
		var err error
		if admin, err = a.Start(*adminAddr); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "mfaserve: admin surface on http://%s\n", admin.Addr())
		return nil
	}
	if err := boot(); err != nil {
		e.Close()
		return exitError, err
	}

	// Background loops, stopped and awaited before run returns.
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-hup:
				// A rejected reload only logs — the running generation
				// keeps serving.
				if _, err := reload(false); err != nil {
					fmt.Fprintf(stderr, "mfaserve: SIGHUP reload: %v\n", err)
				}
			case <-stop:
				return
			}
		}
	}()
	if *statsEvery > 0 {
		bg.Add(1)
		go func() {
			defer bg.Done()
			progressLoop(stderr, e, *statsEvery, stop)
		}()
	}

	// SIGINT/SIGTERM stop the pipeline gracefully: sources observe the
	// cancellation and return, the supervisor drains, then the engine
	// drains under -drain-timeout like any other shutdown.
	ctx, cancelSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer cancelSignals()

	scanStart := time.Now()
	scanErr := sup.Run(ctx)

	closeCtx := context.Background()
	if *drainTimeout > 0 {
		var cancel context.CancelFunc
		closeCtx, cancel = context.WithTimeout(closeCtx, *drainTimeout)
		defer cancel()
	}
	closeErr := e.CloseContext(closeCtx)
	close(stop)
	bg.Wait()
	elapsed := time.Since(scanStart)
	if admin != nil {
		// The admin surface drains under the same bound as the engine:
		// in-flight scrapes finish, long-poll pprof profiles are cut off
		// at the deadline (5s when no -drain-timeout was given).
		bound := 5 * time.Second
		if *drainTimeout > 0 {
			bound = *drainTimeout
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), bound)
		if err := admin.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(stderr, "mfaserve: admin shutdown: %v\n", err)
		}
		cancel()
	}

	st, inputs := e.Stats(), sup.Stats()
	inputReport(stdout, inputs, sup.Arena().Stats())
	report(stdout, st, elapsed)
	healthLine(stdout, st, inputs)

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
	for _, row := range inputs {
		if row.State == input.StateFailed.String() {
			return exitError, fmt.Errorf("source %s failed: %s", row.Name, row.LastError)
		}
	}
	return exitOK, nil
}

// The gate is the one door a rule set passes before it serves, whichever
// entry it is for and however it was asked — startup, SIGHUP, POST
// /reload, a -tenant spec, PUT /tenants/<id>/rules: parse, compile under
// default options, self-check scan. admitText, admitSource and admitImage
// are its three entrances.

// admitText admits rule text (the tenant.Compiler behind PUT bodies).
func admitText(text []byte) (tenant.PutSpec, error) {
	rs, sources, err := rules.Parse(text)
	if err != nil {
		return tenant.PutSpec{}, err
	}
	m, err := core.Compile(rs, core.Options{})
	if err != nil {
		return tenant.PutSpec{}, err
	}
	return vetted(m, sources, text)
}

// admitSource admits a rules file or a built-in set ("set:NAME").
func admitSource(src string) (tenant.PutSpec, error) {
	text, err := rules.ReadText(src)
	if err != nil {
		return tenant.PutSpec{}, err
	}
	spec, err := admitText(text)
	if err != nil {
		return spec, fmt.Errorf("%s: %w", src, err)
	}
	return spec, nil
}

// admitImage admits a compiled engine image, which keeps its baked
// layout; its rule text is the sources it carries.
func admitImage(path string) (tenant.PutSpec, error) {
	m, sources, err := rules.ReadImage(path)
	if err != nil {
		return tenant.PutSpec{}, err
	}
	return vetted(m, sources, []byte(strings.Join(sources, "\n")+"\n"))
}

// vetted runs the self-check scan — a daemon must not serve an automaton
// it could not trust mid-flow — and describes the set for Registry.Put.
func vetted(m *core.MFA, sources []string, text []byte) (tenant.PutSpec, error) {
	if err := m.SelfCheck(); err != nil {
		return tenant.PutSpec{}, err
	}
	return tenant.PutSpec{
		NewRunner: func() flow.Runner { return m.NewRunner() },
		Sources:   sources,
		Rules:     text,
		Build:     m.Stats(),
	}, nil
}

// parseCeiling parses a size that bounds something (-max-memory, ?rate=):
// tenant.ParseSize's grammar, with 0 — "unlimited" to a quota — refused.
func parseCeiling(s string) (int64, error) {
	n, err := tenant.ParseSize(s)
	if err == nil && n == 0 {
		err = errors.New("want a positive size like 268435456, 256M or 1G")
	}
	return n, err
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
// to one source per file, scanned in parallel; pcap:- is stdin. A
// URL-style query suffix carries per-source options: ?tenant=ID,
// ?rate=100M, ?seq (udp only).
func parseSource(spec string, stdin io.Reader) ([]parsedSource, error) {
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
				r, err := parseCeiling(q.Get("rate"))
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
		if srcs, err = expandPcaps(rest, stdin); err != nil {
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

// expandPcaps is input.ExpandPcaps with "-" bound to this run's stdin.
func expandPcaps(spec string, stdin io.Reader) ([]input.Source, error) {
	if spec == "-" {
		return []input.Source{input.NewPcapStream("stdin", stdin)}, nil
	}
	return input.ExpandPcaps(spec)
}

// tenantSpec is one parsed -tenant flag, Put once the registry is bound
// to the engine.
type tenantSpec struct {
	id, src string // src: a rules file path, or set:NAME
	quota   tenant.Quota
	cidrs   []tenant.CIDRRule
}

// parseTenantSpec parses one -tenant flag:
// 'id=RULES[,cidr=CIDR][,max-flows=N][,max-buffered=SIZE]'.
func parseTenantSpec(spec string) (tenantSpec, error) {
	var ts tenantSpec
	fields := strings.Split(spec, ",")
	var ok bool
	if ts.id, ts.src, ok = strings.Cut(fields[0], "="); !ok || ts.id == "" || ts.src == "" {
		return ts, fmt.Errorf("-tenant %q: want id=RULES[,options]", spec)
	}
	if ts.id == tenant.DefaultID {
		return ts, fmt.Errorf("-tenant %s: the default set is declared with -engine, -set or -rules", ts.id)
	}
	for _, f := range fields[1:] {
		k, v, _ := strings.Cut(f, "=")
		var err error
		if k == "cidr" {
			var rule tenant.CIDRRule
			if rule, err = tenant.ParseCIDRRule(v + "=" + ts.id); err == nil {
				ts.cidrs = append(ts.cidrs, rule)
			}
		} else {
			err = ts.quota.Set(k, v)
		}
		if err != nil {
			return ts, fmt.Errorf("-tenant %s: option %q: %w", ts.id, f, err)
		}
	}
	return ts, nil
}

// progressLoop prints one stats line per tick until stop closes, from
// the engine's Stats — the numbers /metrics and /statsz serve, so flows=
// lags like pkts= and bytes= by up to a shard's publish interval (the
// exact count is mfa_reasm_live_flows); the rate is the per-tick delta.
func progressLoop(w io.Writer, e *engine.Engine, every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	var lastMatches int64
	lastTick := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			st, now := e.Stats(), time.Now()
			rate := float64(st.Matches-lastMatches) / now.Sub(lastTick).Seconds()
			lastMatches, lastTick = st.Matches, now
			fmt.Fprintf(w,
				"mfaserve: pkts=%d bytes=%d flows=%d/%d matches=%d (%.1f/s) queued=%d drops=%d tier=%s poisoned=%d\n",
				st.Packets, st.PayloadBytes, st.FlowsLive, st.FlowsTotal, st.Matches, rate,
				st.QueueDepth, st.QueueDrops+st.HardDrops, st.Tier, st.PoisonedFlows)
		}
	}
}

// buildRows serves the static shape of the default set's automaton: what
// the scan loop is actually walking (byte-class count, table bytes) and
// the image split. The rows read the registry's default entry, so a hot
// reload is reflected on the next scrape.
var buildRows = []telemetry.Row[core.BuildStats]{
	telemetry.GaugeRow("mfa_build_dfa_states", "states in the character DFA", func(st *core.BuildStats) float64 { return float64(st.DFAStates) }),
	telemetry.GaugeRow("mfa_build_dfa_table_bytes", "transition-table image bytes: states x classes 4-byte entries plus the 256-byte class map", func(st *core.BuildStats) float64 { return float64(st.DFATableBytes) }),
	telemetry.GaugeRow("mfa_build_dfa_classes", "byte equivalence classes of the transition table: its columns per state", func(st *core.BuildStats) float64 { return float64(st.DFAClasses) }),
	telemetry.GaugeRow("mfa_build_image_bytes", "total static memory image (DFA + filter program)", func(st *core.BuildStats) float64 { return float64(st.MemoryImageBytes()) }),
	telemetry.GaugeRow("mfa_build_mem_bits", "per-flow filter memory width w", func(st *core.BuildStats) float64 { return float64(st.MemBits) }),
	telemetry.GaugeRow("mfa_build_counters", "filter counter registers compiled from bounded repeats", func(st *core.BuildStats) float64 { return float64(st.Counters) }),
	telemetry.GaugeRow("mfa_build_accept_programs", "distinct decision sets compiled to accept programs", func(st *core.BuildStats) float64 { return float64(st.AcceptPrograms) }),
	telemetry.GaugeRow("mfa_build_accept_program_bytes", "resident bytes of the accept programs, derived at load and not part of the image", func(st *core.BuildStats) float64 { return float64(st.AcceptProgramBytes) }),
	telemetry.GaugeRow("mfa_build_seconds", "wall time core.Compile spent on the serving pattern set: what the last start or reload cost (0 for a loaded -engine image)", func(st *core.BuildStats) float64 { return st.BuildTime.Seconds() }),
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
func healthLine(w io.Writer, st engine.Stats, inputs []input.SourceStats) {
	var malformed int64
	for _, row := range inputs {
		malformed += row.Malformed
	}
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
