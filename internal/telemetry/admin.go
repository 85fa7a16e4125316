// Admin HTTP surface.
//
// One handler serves everything an operator (or a scraper, or a load
// balancer) asks a running daemon:
//
//	/metrics  Prometheus text exposition of the registry
//	/statsz   JSON application snapshot (whatever Statsz returns)
//	/healthz  200 "ok" (or 200 "degraded: ..." from Degraded) / 503
//	          with the failure reason, from Health
//	/events   JSON tail of the match-event ring (?n= bounds the tail)
//	/reload   POST: validate and hot-swap the pattern set (when wired;
//	          ?reset=1 restarts in-flight flows on it)
//	/debug/pprof/...  the standard net/http/pprof profiling handlers
//
// The surface is read-only with one deliberate exception: POST /reload
// (enabled only when the Reload callback is set) asks the daemon to
// re-load and swap its pattern set. It answers 405 to every other
// method, so scrapers, crawlers and GET health probes can never trigger
// a swap. Health is a callback so the daemon keys it to the same rule
// as its exit code — the two must never disagree, or a supervisor
// restarting on 503 and one restarting on exit status would fight.

package telemetry

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Admin bundles the pieces the admin surface serves. Any field may be
// nil; the corresponding endpoint then answers 404 (health answers 200,
// the right default for a daemon that defines no health rule).
type Admin struct {
	// Registry backs /metrics.
	Registry *Registry
	// Events backs /events.
	Events *EventRing
	// Health backs /healthz: nil error means healthy. The callback must
	// implement the same predicate as the process's unhealthy exit code.
	Health func() error
	// Degraded, when non-nil, lets /healthz distinguish "up but impaired"
	// from healthy without changing the 503 predicate: if Health passes
	// but Degraded returns a non-empty reason (open circuit breakers, a
	// recent watchdog recovery), the endpoint still answers 200 — load
	// balancers must not evict a self-healing daemon — but the body reads
	// "degraded: <reason>" so probes and operators can see it.
	Degraded func() string
	// Statsz backs /statsz with any JSON-serializable snapshot.
	Statsz func() any
	// Reload, when non-nil, enables POST /reload[?reset=1]: one call per
	// request, expected to validate and swap the serving pattern set,
	// returning the new generation id; reset asks for in-flight flows to
	// restart on it instead of draining on the old one. A returned error
	// means the swap was rejected and the running set is untouched (the
	// endpoint answers 500 with the reason).
	Reload func(reset bool) (generation uint64, err error)
	// Tenants, when non-nil, serves the tenant CRUD surface under
	// /tenants (tenant.Registry.AdminHandler builds one). It is the only
	// other mutating surface besides /reload; PUT /tenants/<id>/rules
	// follows /reload's rejection semantics.
	Tenants http.Handler
}

// Handler builds the admin mux.
func (a *Admin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if a.Registry == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = a.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, req *http.Request) {
		if a.Statsz == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = WriteJSONValue(w, a.Statsz())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		if a.Health != nil {
			if err := a.Health(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if a.Degraded != nil {
			if reason := a.Degraded(); reason != "" {
				fmt.Fprintf(w, "degraded: %s\n", reason)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, req *http.Request) {
		if a.Events == nil {
			http.NotFound(w, req)
			return
		}
		ServeEvents(w, req, a.Events)
	})
	mux.HandleFunc("/reload", func(w http.ResponseWriter, req *http.Request) {
		if a.Reload == nil {
			http.NotFound(w, req)
			return
		}
		if req.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "reload requires POST", http.StatusMethodNotAllowed)
			return
		}
		gen, err := a.Reload(FlagParam(req, "reset"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"generation\":%d}\n", gen)
	})
	if a.Tenants != nil {
		mux.Handle("/tenants", a.Tenants)
		mux.Handle("/tenants/", a.Tenants)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "mfa admin\n/metrics\n/statsz\n/healthz\n/events\n/reload (POST)\n/tenants\n/debug/pprof/\n")
	})
	return mux
}

// ServeEvents answers one match-ring request — /events here, a tenant's
// ring under /tenants: the ring's total and its tail as JSON, ?n=
// bounding the tail (absent or 0: everything buffered).
func ServeEvents(w http.ResponseWriter, req *http.Request, ring *EventRing) {
	n := 0
	if q := req.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = v
	}
	w.Header().Set("Content-Type", "application/json")
	_ = WriteJSONValue(w, struct {
		Total  int64   `json:"total"`
		Events []Event `json:"events"`
	}{Total: ring.Total(), Events: ring.Tail(n)})
}

// FlagParam reports whether the request sets boolean query parameter
// name ("1" or "true"): the one spelling of ?reset= on /reload and
// /tenants.
func FlagParam(req *http.Request, name string) bool {
	v := req.URL.Query().Get(name)
	return v == "1" || v == "true"
}

// Server is a started admin listener.
type Server struct {
	srv *http.Server
	ln  net.Listener
	err chan error
}

// Start listens on addr and serves the admin surface in a background
// goroutine. The returned Server reports the bound address (useful with
// ":0") and shuts down gracefully.
func (a *Admin) Start(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: admin listen %s: %w", addr, err)
	}
	s := &Server{
		srv: &http.Server{Handler: a.Handler(), ReadHeaderTimeout: 5 * time.Second},
		ln:  ln,
		err: make(chan error, 1),
	}
	go func() { s.err <- s.srv.Serve(ln) }()
	return s, nil
}

// Addr reports the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown stops the server gracefully: in-flight requests get until ctx
// expires, then remaining connections are closed. Always returns once
// the server no longer accepts connections.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if err != nil {
		_ = s.srv.Close()
	}
	<-s.err // Serve has returned (http.ErrServerClosed on the clean path)
	return err
}
