package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testAdmin(healthy *atomic.Bool) *Admin {
	reg := NewRegistry()
	reg.Counter("mfa_demo_total", "demo").Add(42)
	ring := NewEventRing(8)
	ring.Add(Event{Flow: "1.2.3.4:80->5.6.7.8:99", Pattern: 7, Offset: 1234})
	return &Admin{
		Registry: reg,
		Events:   ring,
		Health: func() error {
			if healthy.Load() {
				return nil
			}
			return errors.New("2 shard(s) unhealthy")
		},
		Statsz: func() any { return map[string]int{"packets": 10} },
	}
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminEndpoints(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	srv := httptest.NewServer(testAdmin(&healthy).Handler())
	defer srv.Close()

	if code, body := get(t, srv, "/metrics"); code != 200 || !strings.Contains(body, "mfa_demo_total 42") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, body := get(t, srv, "/statsz"); code != 200 || !strings.Contains(body, `"packets": 10`) {
		t.Errorf("/statsz = %d %q", code, body)
	}
	if code, body := get(t, srv, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}

	// Health flips with the callback — the exit-code-parity contract.
	healthy.Store(false)
	if code, body := get(t, srv, "/healthz"); code != 503 || !strings.Contains(body, "unhealthy") {
		t.Errorf("unhealthy /healthz = %d %q, want 503", code, body)
	}

	code, body := get(t, srv, "/events?n=5")
	if code != 200 {
		t.Fatalf("/events = %d", code)
	}
	var ev struct {
		Total  int64   `json:"total"`
		Events []Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &ev); err != nil {
		t.Fatalf("/events JSON: %v in %q", err, body)
	}
	if ev.Total != 1 || len(ev.Events) != 1 || ev.Events[0].Pattern != 7 || ev.Events[0].Offset != 1234 {
		t.Errorf("/events = %+v", ev)
	}
	if code, _ := get(t, srv, "/events?n=-1"); code != 400 {
		t.Errorf("/events?n=-1 = %d, want 400", code)
	}

	if code, body := get(t, srv, "/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
	if code, body := get(t, srv, "/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index = %d %q", code, body)
	}
	if code, _ := get(t, srv, "/nope"); code != 404 {
		t.Errorf("unknown path = %d, want 404", code)
	}
}

// TestAdminDegraded pins the three-way health contract: healthy is
// 200 "ok", degraded is still 200 (a self-healing daemon must not be
// evicted) but says so, and Health failing wins over Degraded with 503.
func TestAdminDegraded(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	var reason atomic.Value
	reason.Store("")
	a := testAdmin(&healthy)
	a.Degraded = func() string { return reason.Load().(string) }
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()

	if code, body := get(t, srv, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("healthy /healthz = %d %q", code, body)
	}
	reason.Store("1 circuit breaker open")
	if code, body := get(t, srv, "/healthz"); code != 200 || !strings.Contains(body, "degraded: 1 circuit breaker open") {
		t.Errorf("degraded /healthz = %d %q, want 200 with reason", code, body)
	}
	healthy.Store(false)
	if code, body := get(t, srv, "/healthz"); code != 503 || !strings.Contains(body, "unhealthy") {
		t.Errorf("unhealthy+degraded /healthz = %d %q, want 503", code, body)
	}
}

func TestAdminNilPieces(t *testing.T) {
	srv := httptest.NewServer((&Admin{}).Handler())
	defer srv.Close()
	for _, path := range []string{"/metrics", "/statsz", "/events"} {
		if code, _ := get(t, srv, path); code != 404 {
			t.Errorf("%s with nil backing = %d, want 404", path, code)
		}
	}
	// No health rule defined: default healthy.
	if code, _ := get(t, srv, "/healthz"); code != 200 {
		t.Errorf("/healthz with nil Health = %d, want 200", code)
	}
}

func TestStartAndGracefulShutdown(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	a := testAdmin(&healthy)
	s, err := a.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET on started server: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("status = %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/metrics"); err == nil {
		t.Error("server still accepting connections after Shutdown")
	}
}

// POST /reload drives the callback; every other method is refused so
// crawlers and health probes can never trigger a swap.
func TestReloadEndpoint(t *testing.T) {
	var fail atomic.Bool
	gen := atomic.Uint64{}
	gen.Store(1)
	a := &Admin{
		Reload: func(bool) (uint64, error) {
			if fail.Load() {
				return 0, errors.New("bad rules file")
			}
			return gen.Add(1), nil
		},
	}
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()

	post := func() (int, string) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/reload", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := post(); code != 200 || strings.TrimSpace(body) != `{"generation":2}` {
		t.Errorf("POST /reload = %d %q", code, body)
	}

	// A rejected reload surfaces the reason with a 500.
	fail.Store(true)
	if code, body := post(); code != 500 || !strings.Contains(body, "bad rules file") {
		t.Errorf("failed POST /reload = %d %q", code, body)
	}

	// GET must not reload.
	if code, _ := get(t, srv, "/reload"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /reload allowed")
	}
	if gen.Load() != 2 {
		t.Errorf("GET/failed POST bumped the generation to %d", gen.Load())
	}

	// Without the callback the endpoint does not exist.
	bare := httptest.NewServer((&Admin{}).Handler())
	defer bare.Close()
	resp, err := bare.Client().Post(bare.URL+"/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("POST /reload with nil callback = %d, want 404", resp.StatusCode)
	}
}
