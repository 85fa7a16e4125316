package main

// The daemon booted in-process: run is driven with real flags, a capture
// on a held-open stdin and an admin surface on an ephemeral port, and
// everything an operator can observe — match lines, exit codes, the admin
// routes, the metric families — is asserted against it.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"matchfilter/internal/core"
	"matchfilter/internal/flow"
	"matchfilter/internal/input"
	"matchfilter/internal/leakcheck"
	"matchfilter/internal/pcap"
	"matchfilter/internal/rules"
	"matchfilter/internal/trace"
)

// syncBuffer is an output stream the daemon's goroutines write and the
// test reads while they do.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// daemon is one run in flight.
type daemon struct {
	t              *testing.T
	stdin          *io.PipeWriter
	pw             *pcap.Writer // frames the held-open stdin capture
	stdout, stderr syncBuffer
	exited         chan struct{}
	stop           context.CancelFunc // ends a run whose sources never do
	code           int
	err            error
	base           string // admin URL, "" without -admin
	client         *http.Client
}

// start boots run(args) on a held-open stdin. With -admin among args it
// returns once the admin surface answers.
func start(t *testing.T, args ...string) *daemon {
	t.Helper()
	pr, pw := io.Pipe()
	tr := &http.Transport{}
	ctx, stop := context.WithCancel(context.Background())
	d := &daemon{t: t, stdin: pw, pw: pcap.NewWriter(pw), exited: make(chan struct{}), stop: stop, client: &http.Client{Transport: tr}}
	go func() {
		defer close(d.exited)
		d.code, d.err = run(ctx, args, pr, &d.stdout, &d.stderr)
		pr.Close() // a run that never read stdin must not block the writer
	}()
	t.Cleanup(func() {
		tr.CloseIdleConnections()
		d.stdin.Close()
		stop()
		<-d.exited
	})
	for _, a := range args {
		if a == "-admin" {
			re := regexp.MustCompile(`admin surface on (http://\S+)`)
			d.waitFor("the admin surface", func() bool {
				m := re.FindStringSubmatch(d.stderr.String())
				if m != nil {
					d.base = m[1]
				}
				return m != nil
			})
		}
	}
	return d
}

// waitFor polls cond, failing the test if the daemon exits or the wall
// bound passes first. It yields rather than sleeps between polls: it
// waits on the daemon's progress, never on a timer.
func (d *daemon) waitFor(what string, cond func() bool) {
	d.t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		select {
		case <-d.exited:
			d.t.Fatalf("daemon exited (code %d, err %v) waiting for %s\nstderr:\n%s", d.code, d.err, what, d.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			d.t.Fatalf("timed out waiting for %s\nstdout:\n%s\nstderr:\n%s", what, d.stdout.String(), d.stderr.String())
		}
		runtime.Gosched()
	}
}

// finish ends stdin — and cancels the run, when told its sources never
// end — and returns run's exit code and error.
func (d *daemon) finish(cancel ...bool) (int, error) {
	d.t.Helper()
	d.stdin.Close()
	if len(cancel) > 0 && cancel[0] {
		d.stop()
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.t.Fatalf("daemon did not exit after stdin EOF\nstderr:\n%s", d.stderr.String())
	}
	return d.code, d.err
}

// do issues one admin request.
func (d *daemon) do(method, path, body string) (int, string) {
	d.t.Helper()
	req, err := http.NewRequest(method, d.base+path, strings.NewReader(body))
	if err != nil {
		d.t.Fatal(err)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		d.t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		d.t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// get is do(GET) that insists on 200.
func (d *daemon) get(path string) string {
	d.t.Helper()
	code, body := d.do(http.MethodGet, path, "")
	if code != 200 {
		d.t.Fatalf("GET %s: %d %q", path, code, body)
	}
	return body
}

// metric reports whether /metrics carries the exact sample line.
func (d *daemon) metric(line string) bool {
	d.t.Helper()
	return strings.Contains("\n"+d.get("/metrics"), "\n"+line+"\n")
}

func (d *daemon) wantMetrics(lines ...string) {
	d.t.Helper()
	for _, l := range lines {
		if !d.metric(l) {
			d.t.Errorf("/metrics lacks the sample %q", l)
		}
	}
}

// matchLines returns the per-match lines printed so far, sorted.
func (d *daemon) matchLines() []string {
	var out []string
	for _, l := range strings.Split(d.stdout.String(), "\n") {
		if strings.Contains(l, " offset ") {
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

// tenantGens reads GET /tenants into id → generation, checking the list
// is ordered by index.
func (d *daemon) tenantGens() map[string]uint64 {
	d.t.Helper()
	var list struct {
		Tenants []struct {
			ID         string `json:"id"`
			Index      uint32 `json:"index"`
			Generation uint64 `json:"generation"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal([]byte(d.get("/tenants")), &list); err != nil {
		d.t.Fatal(err)
	}
	out := make(map[string]uint64)
	for i, tn := range list.Tenants {
		if i > 0 && tn.Index <= list.Tenants[i-1].Index {
			d.t.Errorf("GET /tenants not ordered by index: %+v", list.Tenants)
		}
		out[tn.ID] = tn.Generation
	}
	return out
}

// stream is one flow the test puts on the wire.
type stream struct {
	key     pcap.FlowKey
	payload []byte
}

func key(srcIP uint32, port int) pcap.FlowKey {
	return pcap.FlowKey{SrcIP: srcIP, DstIP: 0xc0a80101, SrcPort: uint16(port), DstPort: 80}
}

// send writes the streams to w as whole TCP connections: SYNs, data in
// mss-sized segments round-robin across the flows, FINs.
func send(t *testing.T, w *pcap.Writer, streams []stream, mss int) {
	t.Helper()
	emit := func(k pcap.FlowKey, seq uint32, flags uint8, p []byte) {
		if err := w.WritePacket(pcap.Packet{Data: pcap.EncodeTCP(k, seq, flags, p)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range streams {
		emit(s.key, 0, pcap.FlagSYN, nil)
	}
	for off, more := 0, true; more; off += mss {
		more = false
		for _, s := range streams {
			if off < len(s.payload) {
				emit(s.key, uint32(1+off), pcap.FlagACK, s.payload[off:min(off+mss, len(s.payload))])
				more = true
			}
		}
	}
	for _, s := range streams {
		emit(s.key, uint32(1+len(s.payload)), pcap.FlagFIN|pcap.FlagACK, nil)
	}
}

func compile(t *testing.T, text string) (*core.MFA, []string) {
	t.Helper()
	rs, sources, err := rules.Parse([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Compile(rs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m, sources
}

// wantLines is the oracle for a set of streams under one rule set: each
// payload through a fresh runner, formatted as the daemon prints matches.
func wantLines(t *testing.T, prefix, ruleText string, streams []stream) []string {
	t.Helper()
	m, sources := compile(t, ruleText)
	var out []string
	for _, s := range streams {
		m.NewRunner().Feed(s.payload, func(id int32, pos int64) {
			out = append(out, fmt.Sprintf("%s%s offset %d: rule %d (%s)", prefix, s.key, pos, id, sources[id-1]))
		})
	}
	if len(out) == 0 {
		t.Fatalf("oracle found no %smatches; the test would be vacuous", prefix)
	}
	return out
}

func writeFile(t *testing.T, path, content string) string {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func equalLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s: %d lines, want %d\ngot:  %.400q\nwant: %.400q", what, len(got), len(want), got, want)
	}
}

// words salts every stream with every rule set's vocabulary, so a flow
// scanned under the wrong set would show.
var words = []string{"attack", "payload", "alpha", "mark", "spotted", "bravo77", "xmrig"}

func streams(srcBase uint32, n, size int, seed int64) []stream {
	out := make([]stream, n)
	for i := range out {
		out[i] = stream{key(srcBase|uint32(i+1), 20000+i), trace.TextLike(size, seed+int64(i*37), words, 0.03)}
	}
	return out
}

// TestServeLifecycle is the admin-smoke CI block in-process, plus the
// tenant surface no CI job drove: one daemon, the default set and three
// tenants, every swap through the one path.
func TestServeLifecycle(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	const defRules, acmeRules, betaRules = "attack.*payload\n", "# acme\nalpha.*mark\nspotted\n", "bravo[0-9]+\n"
	rulesPath := writeFile(t, filepath.Join(dir, "rules.txt"), defRules)
	acmePath := writeFile(t, filepath.Join(dir, "acme.txt"), acmeRules)
	betaPath := writeFile(t, filepath.Join(dir, "beta.txt"), betaRules)

	defFlows := streams(0x0a000000, 6, 4<<10, 1000)  // 10.0.0.x: no CIDR rule, the default set
	acmeFlows := streams(0x0a010000, 4, 4<<10, 5000) // 10.1.0.x: acme by CIDR
	betaFlows := streams(0x0a000000, 3, 4<<10, 9000) // default-looking addresses, beta by source binding
	var betaCap bytes.Buffer
	send(t, pcap.NewWriter(&betaCap), betaFlows, 512)
	betaPcap := filepath.Join(dir, "beta.pcap")
	writeFile(t, betaPcap, betaCap.String())

	d := start(t, "-rules", rulesPath, "-pcap", "-", "-shards", "2", "-admin", "127.0.0.1:0",
		"-tenant", "acme="+acmePath+",cidr=10.1.0.0/16,max-flows=100",
		"-tenant", "beta="+betaPath+",max-buffered=0", // a quota of 0 is "unlimited", as on PUT
		"-source", "pcap:"+betaPcap+"?tenant=beta")
	send(t, d.pw, append(append([]stream(nil), defFlows...), acmeFlows...), 512)

	// Each flow matched under its own entry's rules and nobody else's;
	// tenant lines carry the [id] prefix, default lines none.
	want := wantLines(t, "", defRules, defFlows)
	want = append(want, wantLines(t, "[acme] ", acmeRules, acmeFlows)...)
	want = append(want, wantLines(t, "[beta] ", betaRules, betaFlows)...)
	d.waitFor("every match line", func() bool { return len(d.matchLines()) >= len(want) })
	equalLines(t, "match lines", d.matchLines(), want)

	// What admin-smoke asked with curl.
	if body := d.get("/healthz"); body != "ok\n" {
		t.Errorf("/healthz = %q", body)
	}
	var statsz map[string]json.RawMessage
	if err := json.Unmarshal([]byte(d.get("/statsz")), &statsz); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"Inputs", "Arena", "Engine", "Tenants", "Build"} {
		if statsz[k] == nil {
			t.Errorf("/statsz lacks top-level key %q", k)
		}
	}
	if _, gov := statsz["Governor"]; gov || len(statsz) != 5 {
		t.Errorf("/statsz top-level keys changed: %d keys, Governor present = %t", len(statsz), gov)
	}
	if s := string(statsz["Engine"]); !strings.Contains(s, `"Packets"`) || !strings.Contains(s, `"Generation": 1`) {
		t.Errorf("/statsz Engine = %.200s", s)
	}
	if s := string(statsz["Tenants"]); !strings.Contains(s, `"acme"`) || !strings.Contains(s, `"beta"`) || strings.Contains(s, `"default"`) {
		t.Errorf("/statsz Tenants should list the declared tenants only (the default set is Engine and Build): %s", s)
	}
	if body := d.get("/events"); !strings.Contains(body, `"total"`) || !strings.Contains(body, `"pattern"`) {
		t.Errorf("/events = %.200q", body)
	}
	metrics := d.get("/metrics")
	for _, fam := range []string{
		"mfa_engine_packets_total", "mfa_engine_matches_total", "mfa_engine_tier", "mfa_engine_unhealthy_shards",
		"mfa_reasm_live_flows", "mfa_shard_scan_seconds_bucket", "mfa_shard_window_flows_bucket",
		"mfa_scan_accept_visits_total", "mfa_scan_lockstep_bytes_total", "mfa_scan_sequential_bytes_total",
		"mfa_go_goroutines", "mfa_process_uptime_seconds", "mfa_input_segments_total",
		"mfa_generation", "mfa_generation_live_flows", "mfa_reload_success_total", "mfa_reload_failure_total",
		"mfa_tenant_generation", "mfa_tenant_generation_live_flows", "mfa_tenant_live_flows", "mfa_tenant_matches_total",
		"mfa_tenant_buffered_bytes", "mfa_tenant_quota_flow_drops_total", "mfa_tenant_quota_byte_drops_total",
		"mfa_build_dfa_states", "mfa_build_dfa_table_bytes", "mfa_build_dfa_classes", "mfa_build_image_bytes",
		"mfa_build_mem_bits", "mfa_build_counters", "mfa_build_accept_programs", "mfa_build_accept_program_bytes",
		"mfa_build_seconds",
	} {
		if !strings.Contains("\n"+metrics, "\n"+fam) {
			t.Errorf("missing metric family %s", fam)
		}
	}
	if strings.Contains(metrics, `tenant="default"`) {
		t.Error("the default set registered tenant-labelled series; mfa_generation and mfa_engine_* are its accounting")
	}
	d.wantMetrics("mfa_generation 1", "mfa_reload_success_total 0",
		`mfa_tenant_generation{tenant="acme"} 1`, `mfa_tenant_generation{tenant="beta"} 1`,
		fmt.Sprintf(`mfa_tenant_matches_total{tenant="acme"} %d`, len(wantLines(t, "", acmeRules, acmeFlows))))

	// Valid reload: the edited file swaps in as generation 2.
	writeFile(t, rulesPath, "attack.*payload|evil[a-z]+\n")
	if code, body := d.do(http.MethodPost, "/reload", ""); code != 200 || body != "{\"generation\":2}\n" {
		t.Fatalf("POST /reload: %d %q", code, body)
	}
	d.wantMetrics("mfa_generation 2", "mfa_reload_success_total 1", `mfa_generation_live_flows{generation="2"} 0`)
	if code, _ := d.do(http.MethodGet, "/reload", ""); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /reload: %d, want 405", code)
	}

	// Broken reload: rejected, generation 2 keeps serving.
	writeFile(t, rulesPath, "bad(rule\n")
	if code, body := d.do(http.MethodPost, "/reload", ""); code != 500 || !strings.Contains(body, "generation 2 keeps serving") || !strings.Contains(body, "line 1") {
		t.Fatalf("broken POST /reload: %d %q", code, body)
	}
	d.wantMetrics("mfa_generation 2", "mfa_reload_failure_total 1", "mfa_reload_success_total 1")
	if body := d.get("/healthz"); body != "ok\n" {
		t.Errorf("/healthz after a rejected reload = %q", body)
	}

	// The default set is an entry like the others: PUT on it lands on the
	// counter /reload bumps, GET lists it first, DELETE is refused.
	if code, body := d.do(http.MethodPut, "/tenants/default/rules?reset=1", "xmrig\n"); code != 200 || body != "{\"tenant\":\"default\",\"index\":0,\"generation\":3}\n" {
		t.Fatalf("PUT /tenants/default/rules: %d %q", code, body)
	}
	if body := d.get("/tenants/default/rules"); body != "xmrig\n" {
		t.Errorf("GET /tenants/default/rules = %q", body)
	}
	if code, body := d.do(http.MethodPut, "/tenants/default/rules?max-flows=5", "xmrig\n"); code == 200 {
		t.Errorf("a quota on the default set was accepted: %q", body)
	}
	if code, body := d.do(http.MethodPut, "/tenants/default/rules", "(broken\n"); code != 500 || !strings.Contains(body, "rules rejected") {
		t.Errorf("broken PUT on the default set: %d %q", code, body)
	}
	if code, body := d.do(http.MethodDelete, "/tenants/default", ""); code != http.StatusForbidden {
		t.Errorf("DELETE /tenants/default: %d %q, want 403", code, body)
	}
	d.wantMetrics("mfa_generation 3", "mfa_reload_success_total 1") // PUT is not a /reload
	// Traffic after the swap scans under the PUT body's rules and prints
	// its text.
	late := []stream{{key(0x0a000000|200, 30000), []byte("an attack payload, then xmrig again")}}
	send(t, d.pw, late, 512)
	want = append(want, wantLines(t, "", "xmrig\n", late)...)
	d.waitFor("the post-swap match", func() bool { return len(d.matchLines()) >= len(want) })
	equalLines(t, "match lines after the default swap", d.matchLines(), want)

	// /reload?reset=1 and SIGHUP re-read the boot source onto that same
	// counter.
	writeFile(t, rulesPath, defRules)
	if code, body := d.do(http.MethodPost, "/reload?reset=1", ""); code != 200 || body != "{\"generation\":4}\n" {
		t.Fatalf("POST /reload?reset=1: %d %q", code, body)
	}
	if !strings.Contains(d.stderr.String(), "reloaded 1 rules as generation 4 (reset=true)") {
		t.Errorf("no reload log line for generation 4:\n%s", d.stderr.String())
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	d.waitFor("the SIGHUP reload", func() bool { return d.metric("mfa_generation 5") })
	d.wantMetrics("mfa_reload_success_total 3", "mfa_reload_failure_total 1")
	if body := d.get("/tenants/default/rules"); body != defRules {
		t.Errorf("GET /tenants/default/rules after reload = %q, want the file's text", body)
	}

	// A tenant created at run time, reloaded, and deleted: nobody else's
	// generation moves.
	if code, body := d.do(http.MethodPut, "/tenants/globex/rules?max-flows=7&max-buffered=1M", "spotted\n"); code != 200 || body != "{\"tenant\":\"globex\",\"index\":3,\"generation\":1}\n" {
		t.Fatalf("PUT /tenants/globex/rules: %d %q", code, body)
	}
	if code, body := d.do(http.MethodPut, "/tenants/globex/rules", "spotted\nmark\n"); code != 200 || !strings.Contains(body, `"generation":2`) {
		t.Fatalf("re-PUT /tenants/globex/rules: %d %q", code, body)
	}
	if body := d.get("/tenants/globex"); !strings.Contains(body, `"max_flows": 7`) || !strings.Contains(body, `"max_buffered_bytes": 1048576`) || !strings.Contains(body, `"rules": 2`) {
		t.Errorf("GET /tenants/globex = %s", body)
	}
	if code, body := d.do(http.MethodPut, "/tenants/acme/rules?reset=1", acmeRules); code != 200 || !strings.Contains(body, `"generation":2`) {
		t.Fatalf("PUT /tenants/acme/rules: %d %q", code, body)
	}
	if got, want := d.tenantGens(), map[string]uint64{"default": 5, "acme": 2, "beta": 1, "globex": 2}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("GET /tenants generations = %v, want %v", got, want)
	}
	d.wantMetrics("mfa_generation 5", `mfa_tenant_generation{tenant="acme"} 2`, `mfa_tenant_generation{tenant="beta"} 1`,
		`mfa_tenant_generation{tenant="globex"} 2`, `mfa_tenant_generation_live_flows{generation="2",tenant="globex"} 0`)
	if body := d.get("/tenants/acme"); !strings.Contains(body, `"max_flows": 100`) {
		t.Errorf("acme's -tenant quota did not survive a PUT without parameters: %s", body)
	}
	if code, _ := d.do(http.MethodDelete, "/tenants/globex", ""); code != 200 {
		t.Errorf("DELETE /tenants/globex: %d", code)
	}
	if code, _ := d.do(http.MethodGet, "/tenants/globex", ""); code != 404 {
		t.Errorf("GET a deleted tenant: %d, want 404", code)
	}
	if code, _ := d.do(http.MethodDelete, "/tenants/globex", ""); code != 404 {
		t.Errorf("DELETE a deleted tenant: %d, want 404", code)
	}
	if got := d.tenantGens(); len(got) != 3 || got["default"] != 5 {
		t.Errorf("GET /tenants after the delete = %v", got)
	}

	if code, err := d.finish(); code != exitOK || err != nil {
		t.Fatalf("exit %d, %v; want 0", code, err)
	}
	out := d.stdout.String()
	for _, s := range []string{"source pcap:stdin: done", "source pcap:beta.pcap: done", "confirmed matches: ", "health: ok "} {
		if !strings.Contains(out, s) {
			t.Errorf("report lacks %q:\n%s", s, out[strings.LastIndex(out, "source pcap"):])
		}
	}
}

// Default-set match lines equal the sequential scanner's, byte for byte
// once sorted, at one shard and at four, from rule text and from a
// compiled image.
func TestServeMatchesSequentialScan(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	const ruleText = "attack.*payload\nalpha[^\\n]*mark\nspotted\n"
	rulesPath := writeFile(t, filepath.Join(dir, "rules.txt"), ruleText)
	payloads := make([][]byte, 12)
	for i := range payloads {
		payloads[i] = trace.TextLike(8<<10, int64(300+i*37), words, 0.03)
	}
	var capture bytes.Buffer
	if err := pcap.Synthesize(&capture, payloads, 512, 0.05, 42); err != nil {
		t.Fatal(err)
	}
	capPath := filepath.Join(dir, "t.pcap")
	writeFile(t, capPath, capture.String())

	m, sources := compile(t, ruleText)
	var want []string
	if _, err := flow.ScanPcap(bytes.NewReader(capture.Bytes()), flow.Config{},
		func() flow.Runner { return m.NewRunner() },
		func(mt flow.Match) {
			want = append(want, fmt.Sprintf("%s offset %d: rule %d (%s)", mt.Flow, mt.Pos, mt.ID, sources[mt.ID-1]))
		}); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("the sequential scan found nothing; the test would be vacuous")
	}
	var img bytes.Buffer
	if err := core.WriteStrings(&img, sources); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteTo(&img); err != nil {
		t.Fatal(err)
	}
	image := writeFile(t, filepath.Join(dir, "rules.eng"), img.String())

	for _, args := range [][]string{
		{"-rules", rulesPath, "-pcap", capPath, "-shards", "1"},
		{"-rules", rulesPath, "-pcap", capPath, "-shards", "4"},
		{"-engine", image, "-source", "pcap:" + capPath, "-shards", "4"},
	} {
		d := start(t, args...)
		if code, err := d.finish(); code != exitOK || err != nil {
			t.Fatalf("%v: exit %d, %v", args, code, err)
		}
		equalLines(t, strings.Join(args, " "), d.matchLines(), want)
	}
	// The image serves the table it was built with; the capture arrives
	// on stdin once /metrics has said so.
	d := start(t, "-engine", image, "-pcap", "-", "-shards", "4", "-admin", "127.0.0.1:0")
	d.wantMetrics(fmt.Sprintf("mfa_build_dfa_classes %d", m.Stats().DFAClasses))
	if _, err := d.stdin.Write(capture.Bytes()); err != nil {
		t.Fatal(err)
	}
	if code, err := d.finish(); code != exitOK || err != nil {
		t.Fatalf("image on stdin: exit %d, %v", code, err)
	}
	equalLines(t, "image on stdin", d.matchLines(), want)
}

func TestExitCodes(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	rulesPath := writeFile(t, filepath.Join(dir, "rules.txt"), "attack.*payload\n")
	var capture bytes.Buffer
	send(t, pcap.NewWriter(&capture), streams(0x0a000000, 2, 2<<10, 7), 512)
	whole := writeFile(t, filepath.Join(dir, "whole.pcap"), capture.String())
	cut := writeFile(t, filepath.Join(dir, "cut.pcap"), capture.String()[:capture.Len()-7])

	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		errHas string
		outHas string
	}{
		{"clean capture", []string{"-rules", rulesPath, "-pcap", whole}, exitOK, "", "malformed=0"},
		{"truncated capture, lenient", []string{"-rules", rulesPath, "-pcap", cut}, exitOK, "", "malformed=1"},
		{"truncated capture, strict", []string{"-rules", rulesPath, "-pcap", cut, "-strict"}, exitStrict, "pcap", "health: "},
		{"missing capture", []string{"-rules", rulesPath, "-pcap", filepath.Join(dir, "nope.pcap")}, exitError, "nope.pcap", ""},
		{"missing rules file", []string{"-rules", filepath.Join(dir, "nope.txt"), "-pcap", whole}, exitError, "nope.txt", ""},
		{"broken rules file", []string{"-rules", writeFile(t, filepath.Join(dir, "bad.txt"), "ok\n(broken\n"), "-pcap", whole}, exitError, "bad.txt: line 2", ""},
		{"a rule line past 64 KiB", []string{"-rules", writeFile(t, filepath.Join(dir, "long.txt"), "attack"+strings.Repeat("x", 100<<10)+"\n"), "-pcap", whole}, exitOK, "", "health: ok"},
		{"no rule set", []string{"-pcap", whole}, exitError, "-set or -rules", ""},
		{"-engine with -rules", []string{"-engine", "x.eng", "-rules", rulesPath, "-pcap", whole}, exitError, "-engine replaces", ""},
		{"bad tenant spec", []string{"-rules", rulesPath, "-pcap", whole, "-tenant", "acme"}, exitError, "want id=RULES", ""},
		{"tenant named default", []string{"-rules", rulesPath, "-pcap", whole, "-tenant", "default=" + rulesPath}, exitError, "-engine, -set or -rules", ""},
		{"tenant with broken rules", []string{"-rules", rulesPath, "-pcap", whole, "-tenant", "acme=" + filepath.Join(dir, "bad.txt")}, exitError, "-tenant acme: ", ""},
		{"unknown tenant option", []string{"-rules", rulesPath, "-pcap", whole, "-tenant", "acme=" + rulesPath + ",max-flow=3"}, exitError, "max-flow=3", ""},
		{"source bound to an undeclared tenant", []string{"-rules", rulesPath, "-source", "pcap:" + whole + "?tenant=ghost"}, exitError, "unknown tenant", ""},
		{"a ceiling of zero", []string{"-rules", rulesPath, "-pcap", whole, "-max-memory", "0"}, exitError, "-max-memory", ""},
		{"a rate of zero", []string{"-rules", rulesPath, "-source", "pcap:" + whole + "?rate=0"}, exitError, "rate", ""},
		{"unknown flag", []string{"-no-such-flag"}, 2, "", ""},
		{"a watermark flag, which -max-memory replaced", []string{"-soft-watermark", "0.5"}, 2, "", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := start(t, tc.args...)
			code, err := d.finish()
			if code != tc.code {
				t.Errorf("exit %d (%v), want %d", code, err, tc.code)
			}
			if tc.errHas != "" && (err == nil || !strings.Contains(err.Error(), tc.errHas)) {
				t.Errorf("err = %v, want one containing %q", err, tc.errHas)
			}
			if tc.errHas == "" && tc.code == exitOK && err != nil {
				t.Errorf("err = %v", err)
			}
			if !strings.Contains(d.stdout.String(), tc.outHas) {
				t.Errorf("stdout lacks %q:\n%s", tc.outHas, d.stdout.String())
			}
		})
	}
}

// Every tuning flag the daemon keeps, set away from its default on one
// run, with what each makes observable.
func TestServeTuningFlags(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	flows := streams(0x0a000000, 40, 8<<10, 11)
	var capture bytes.Buffer
	send(t, pcap.NewWriter(&capture), flows[1:], 256)
	capPath := writeFile(t, filepath.Join(dir, "t.pcap"), capture.String())

	d := start(t, "-set", "CTR8", "-source", "pcap:"+capPath, "-pcap", "-",
		"-shards", "2", "-queue", "64", "-drop", "-max-flows", "8", "-idle", "100000", "-max-memory", "64M",
		"-stall-deadline", "5s", "-drain-timeout", "20s", "-stats", "5ms", "-q", "-admin", "127.0.0.1:0")
	send(t, d.pw, flows[:1], 256) // stdin stays open: the daemon serves until finish
	d.waitFor("the capture to be scanned", func() bool {
		return strings.Contains(d.get("/statsz"), `"State": "done"`)
	})
	d.waitFor("a -stats line", func() bool { return strings.Contains(d.stderr.String(), "mfaserve: pkts=") })
	d.wantMetrics("mfa_engine_queue_capacity 128", "mfa_engine_shards 2", "mfa_guard_mem_limit_bytes 67108864")
	metrics := d.get("/metrics")
	for _, s := range []string{`mfa_guard_mem_component_bytes{component="arena"}`, `mfa_guard_mem_component_bytes{component="engine"}`} {
		if !strings.Contains(metrics, s) {
			t.Errorf("/metrics lacks %s", s)
		}
	}
	// CTR8's bounded repeats take counter registers with no flag.
	if d.metric("mfa_build_counters 0") {
		t.Error("the default build compiled CTR8 without counter registers")
	}
	if !strings.Contains(d.get("/statsz"), `"Governor"`) {
		t.Error("/statsz lacks the Governor block under -max-memory")
	}
	if code, err := d.finish(); code != exitOK || err != nil {
		t.Fatalf("exit %d, %v", code, err)
	}
	out := d.stdout.String()
	if strings.Contains(out, " offset ") {
		t.Error("-q printed match lines")
	}
	// Forty round-robin connections thrash an 8-flow table: the cap evicts,
	// and a full table is not memory pressure, so the ladder stays put.
	for _, re := range []string{`evicted [1-9]\d* \(cap\)`, `tier\{now=normal soft_enters=0 hard_enters=0 `} {
		if !regexp.MustCompile(re).MatchString(out) {
			t.Errorf("report does not match %s:\n%s", re, out)
		}
	}
}

// A file replay outruns one shard behind a 64-segment queue. That is
// backpressure, not overload: every segment is scanned, none shed.
func TestServeBackpressuredReplayLosesNothing(t *testing.T) {
	leakcheck.Check(t)
	const flows, size, mss = 40, 32 << 10, 256
	var capture bytes.Buffer
	send(t, pcap.NewWriter(&capture), streams(0x0a000000, flows, size, 5), mss)
	capPath := writeFile(t, filepath.Join(t.TempDir(), "t.pcap"), capture.String())
	d := start(t, "-set", "C8", "-pcap", capPath, "-shards", "1", "-queue", "64", "-q")
	if code, err := d.finish(); code != exitOK || err != nil {
		t.Fatalf("exit %d, %v", code, err)
	}
	out := d.stdout.String()
	segs := flows * (size/mss + 2) // a SYN, the payload, a FIN per flow
	for _, want := range []string{fmt.Sprintf("scanned %d TCP packets", segs), "drops{queue=0 hard=0 ", "tier{now=normal "} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run instead of comparing against them")

// closedLabels are the label keys whose values are part of the surface;
// every other label's value (tenant ids, generation numbers, le bounds)
// is data and reads as * in the series golden.
var closedLabels = map[string]bool{"shard": true, "tier": true, "component": true, "source": true}

var labelRE = regexp.MustCompile(`(\w+)="((?:[^"\\]|\\.)*)"`)

// seriesList reduces a /metrics body to its shape: the HELP and TYPE
// lines and every series with its value stripped, sorted and deduplicated.
func seriesList(metrics string) string {
	set := make(map[string]bool)
	for _, line := range strings.Split(metrics, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "#"):
			set[line] = true
		default:
			series := line[:strings.LastIndexByte(line, ' ')]
			set[labelRE.ReplaceAllStringFunc(series, func(kv string) string {
				if k, _, _ := strings.Cut(kv, "="); !closedLabels[k] {
					return k + `="*"`
				}
				return kv
			})] = true
		}
	}
	return sortedLines(set)
}

// keyPaths reduces a /statsz body to the sorted paths of its leaves:
// arrays read as [], all-digit keys (generation ids) as *.
func keyPaths(t *testing.T, statsz string) string {
	t.Helper()
	var doc any
	if err := json.Unmarshal([]byte(statsz), &doc); err != nil {
		t.Fatal(err)
	}
	set := make(map[string]bool)
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, c := range x {
				if strings.Trim(k, "0123456789") == "" {
					k = "*"
				}
				walk(path+"."+k, c)
			}
		case []any:
			for _, c := range x {
				walk(path+"[]", c)
			}
		}
		if m, ok := v.(map[string]any); !ok || len(m) == 0 {
			if a, ok := v.([]any); !ok || len(a) == 0 {
				set[strings.TrimPrefix(path, ".")] = true
			}
		}
	}
	walk("", doc)
	return sortedLines(set)
}

func sortedLines(set map[string]bool) string {
	lines := make([]string, 0, len(set))
	for l := range set {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// golden compares got with testdata/name, or rewrites the file under
// -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		writeFile(t, path, got)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	have := make(map[string]bool)
	for _, l := range strings.Split(string(want), "\n") {
		have[l] = true
	}
	for _, l := range strings.Split(got, "\n") {
		if !have[l] {
			t.Errorf("%s: + %s", name, l)
		}
		delete(have, l)
	}
	for l := range have {
		t.Errorf("%s: - %s", name, l)
	}
	t.Errorf("%s differs from this run; if the change is intended, go test ./cmd/mfaserve -run TestAdminSurfaceGolden -update", path)
}

// The whole admin surface, pinned: which series /metrics serves (name,
// help, kind, label keys and the closed label values) and which keys
// /statsz carries, on a boot that switches every optional family on — a
// declared tenant and one created at run time, the memory governor, the
// stall watchdog, a finite source and a rate-limited infinite one behind a
// breaker. testdata/metrics.golden is the list of what /metrics serves.
func TestAdminSurfaceGolden(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	rulesPath := writeFile(t, filepath.Join(dir, "rules.txt"), "attack.*payload\n")
	acmePath := writeFile(t, filepath.Join(dir, "acme.txt"), "alpha.*mark\n")
	d := start(t, "-rules", rulesPath, "-pcap", "-", "-shards", "2", "-admin", "127.0.0.1:0",
		"-tenant", "acme="+acmePath+",cidr=10.1.0.0/16", "-max-memory", "64M", "-stall-deadline", "5s",
		"-source", "tcp:127.0.0.1:0?rate=100M")
	if code, body := d.do(http.MethodPut, "/tenants/late/rules", "spotted\n"); code != 200 {
		t.Fatalf("PUT /tenants/late/rules: %d %q", code, body)
	}
	// A governor component registered while serving has its series: there
	// is no "register the metrics after the last component" rule to break.
	d.wantMetrics(`mfa_guard_mem_component_bytes{component="tenant:late"} 0`)
	// Shards apply a swap on their own goroutines; the per-generation rows
	// of /statsz appear with the first one that has.
	d.waitFor("a shard to publish its generations", func() bool {
		return !strings.Contains(d.get("/statsz"), `"GenFlows": null`)
	})
	golden(t, "metrics.golden", seriesList(d.get("/metrics")))
	golden(t, "statsz.golden", keyPaths(t, d.get("/statsz")))
	// Stdin has to end as a capture: an empty one is a truncated header, and
	// the run exits 1 whenever that source failure beats finish's cancel.
	send(t, d.pw, []stream{{key(0x0a000001, 1000), []byte("x")}}, 256)
	if code, err := d.finish(true); code != exitOK || err != nil {
		t.Fatalf("exit %d, %v; want 0", code, err)
	}
}

// The per-source /statsz keys the golden boot cannot show: they are
// omitempty and read zero until a source paces or its breaker probes —
// the /statsz half of mfa_input_rate_paused_seconds_total and
// mfa_guard_breaker_probes_total. Pinned here by name, beside their
// omitempty neighbours that the golden does carry.
func TestStatszOmitemptySourceKeys(t *testing.T) {
	row, err := json.Marshal(map[string]any{"Inputs": []input.SourceStats{{
		RateBytesPerSec: 1, RatePausedNanos: 1, Breaker: "half-open", BreakerOpens: 1, BreakerProbes: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	paths := keyPaths(t, string(row))
	for _, want := range []string{"Inputs[].RateBytesPerSec", "Inputs[].RatePausedNanos", "Inputs[].Breaker", "Inputs[].BreakerOpens", "Inputs[].BreakerProbes"} {
		if !strings.Contains(paths, want+"\n") {
			t.Errorf("/statsz Inputs row with every counter moved has no %s key:\n%s", want, paths)
		}
	}
}
