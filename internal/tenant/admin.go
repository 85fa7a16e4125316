// Tenant CRUD over the admin HTTP surface.
//
//	GET    /tenants                 JSON list of tenant snapshots
//	PUT    /tenants/<id>/rules      install/replace the tenant's rule set
//	                                (body: rule text; ?max-flows=N,
//	                                ?max-buffered=SIZE, ?reset=1)
//	GET    /tenants/<id>/rules      the raw rule text last installed
//	GET    /tenants/<id>            one tenant's snapshot
//	GET    /tenants/<id>/events     tail of the tenant's match ring (?n=)
//	DELETE /tenants/<id>[/rules]    remove the tenant
//
// PUT and POST /reload share one gate: the body goes through the
// Compiler callback (parse → compile → SelfCheck), and a rejected set
// answers 500 with the reason while the tenant's serving generation — or
// its absence — is untouched. <id> may be "default": PUT replaces the
// rule set untagged traffic scans against (takes no quota parameters),
// DELETE is refused.

package tenant

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"matchfilter/internal/telemetry"
)

// Compiler turns raw rule text into a validated PutSpec (runner factory,
// per-rule sources, text, build shape); the handler adds the request's
// quota and reset. Implementations must run the SelfCheck gate and
// return an error on any defect — the handler treats an error as a
// rejected swap.
type Compiler func(rules []byte) (PutSpec, error)

// maxRulesBody bounds a PUT body; rule sets beyond this are rejected
// before compilation.
const maxRulesBody = 16 << 20

// AdminHandler serves the tenant CRUD surface for this registry. Mount
// it at /tenants (telemetry.Admin.Tenants does).
func (r *Registry) AdminHandler(compile Compiler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rest := strings.TrimPrefix(strings.TrimPrefix(req.URL.Path, "/tenants"), "/")
		id, sub, _ := strings.Cut(rest, "/")
		switch {
		case id == "":
			if req.Method != http.MethodGet {
				w.Header().Set("Allow", http.MethodGet)
				http.Error(w, "list requires GET", http.StatusMethodNotAllowed)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = telemetry.WriteJSONValue(w, struct {
				Tenants []Stats `json:"tenants"`
			}{Tenants: r.List()})
		case sub == "" || sub == "rules":
			r.serveTenant(w, req, compile, id, sub)
		case sub == "events":
			r.serveEvents(w, req, id)
		default:
			http.NotFound(w, req)
		}
	})
}

func (r *Registry) serveTenant(w http.ResponseWriter, req *http.Request, compile Compiler, id, sub string) {
	switch req.Method {
	case http.MethodGet:
		t := r.ByID(id)
		if t == nil {
			http.NotFound(w, req)
			return
		}
		if sub == "rules" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = w.Write(t.Rules())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = telemetry.WriteJSONValue(w, t.Stats())
	case http.MethodPut:
		if sub != "rules" {
			http.Error(w, "PUT targets /tenants/<id>/rules", http.StatusMethodNotAllowed)
			return
		}
		if compile == nil {
			http.Error(w, "no rule compiler wired", http.StatusNotImplemented)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxRulesBody))
		if err != nil {
			http.Error(w, fmt.Sprintf("read rules: %v", err), http.StatusBadRequest)
			return
		}
		var quota Quota
		q := req.URL.Query()
		if t := r.ByID(id); t != nil {
			quota = t.Quota() // absent params keep the current quota
		}
		for _, k := range []string{"max-flows", "max-buffered"} {
			if v := q.Get(k); v != "" {
				if err := quota.Set(k, v); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
			}
		}
		// The gate: parse → compile → SelfCheck, exactly as POST /reload.
		// A rejected set must leave the tenant's serving state untouched,
		// which Put guarantees by swapping only after compile succeeds.
		spec, err := compile(body)
		if err != nil {
			http.Error(w, fmt.Sprintf("rules rejected: %v", err), http.StatusInternalServerError)
			return
		}
		spec.Quota, spec.Reset = quota, telemetry.FlagParam(req, "reset")
		t, gen, err := r.Put(id, spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"tenant\":%q,\"index\":%d,\"generation\":%d}\n", t.ID(), t.Index(), gen)
	case http.MethodDelete:
		if err := r.Delete(id); err != nil {
			code := http.StatusInternalServerError
			switch {
			case errors.Is(err, ErrUnknown):
				code = http.StatusNotFound
			case errors.Is(err, ErrDefault):
				code = http.StatusForbidden
			}
			http.Error(w, err.Error(), code)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"deleted\":%q}\n", id)
	default:
		w.Header().Set("Allow", "GET, PUT, DELETE")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (r *Registry) serveEvents(w http.ResponseWriter, req *http.Request, id string) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "events requires GET", http.StatusMethodNotAllowed)
		return
	}
	t := r.ByID(id)
	if t == nil {
		http.NotFound(w, req)
		return
	}
	telemetry.ServeEvents(w, req, t.Events())
}

// ParseSize parses a byte count with an optional K/M/G suffix (binary:
// K = 1024; case-insensitive): the one size grammar of the daemon's flags
// and query parameters. 0 parses — a quota reads it as unlimited; a
// caller parsing a ceiling rejects it.
func ParseSize(s string) (int64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty size")
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}
