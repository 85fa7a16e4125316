// Package tenant maps tenant ids to independent rule-set images served
// by one daemon. This is the production payoff of the paper's central
// size claim: decomposed MFA images are small enough to hold *many*
// pattern sets in memory at once, so one engine fleet can serve many
// isolated user populations where per-tenant DFA fleets would hit the
// memory wall.
//
// Every rule set the daemon serves is an entry here, the default one
// (DefaultID, dispatch index 0 — what untagged traffic scans against)
// included, and Put is the one way a rule set starts serving:
//
//   - The engine numbers each entry's generations; every Put mints the
//     next (index, generation) pair and swaps only that entry's flows,
//     through one per-shard command path (internal/engine
//     generation.go) behind one validation gate (the Compiler).
//   - Flows carry the tenant index in their pcap.FlowKey, assigned at
//     ingest (per-source binding or the CIDR classifier here), so flow
//     identity, shard affinity and flow-table isolation are all
//     per-tenant for free.
//   - Quotas (max flows, max buffered reassembly bytes) live in a
//     flow.TenantAcct shared by every shard, so they bound the tenant's
//     *global* footprint; each tenant's buffered bytes register as a
//     named component of the guard.Governor, and quota overruns shed
//     only that tenant's traffic — a noisy tenant degrades alone.
//   - The default entry is the registry's record of the default set
//     (generation, rule text, build shape) and nothing more: untagged
//     segments and their matches never consult the registry, the
//     engine-wide caps and counters are its quota and accounting, and
//     it cannot be deleted.
//
// The Registry is the one writer (admin CRUD, boot-time preload); the
// engine's dispatch path reads it lock-free via an atomic index table.
package tenant

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"matchfilter/internal/core"
	"matchfilter/internal/flow"
	"matchfilter/internal/guard"
	"matchfilter/internal/telemetry"
)

// DefaultID names the reserved entry at dispatch index 0: the rule set
// untagged traffic scans against.
const DefaultID = "default"

var (
	// ErrUnknown marks operations on a tenant id that is not registered.
	ErrUnknown = errors.New("tenant: unknown tenant")
	// ErrDefault refuses deleting the default rule set.
	ErrDefault = errors.New("tenant: the default rule set cannot be deleted, only replaced")
)

// Quota bounds one tenant's resource usage. Zero fields mean unlimited.
type Quota struct {
	// MaxFlows caps the tenant's live flows across all shards; segments
	// that would create a flow beyond it are dropped (counted under the
	// tenant's label).
	MaxFlows int64 `json:"max_flows,omitempty"`
	// MaxBufferedBytes caps the tenant's out-of-order reassembly bytes
	// across all shards.
	MaxBufferedBytes int64 `json:"max_buffered_bytes,omitempty"`
}

// Set assigns one quota option in its flag and query spelling —
// max-flows=N or max-buffered=SIZE, 0 meaning unlimited: the one grammar
// behind -tenant specs and PUT /tenants/<id>/rules parameters.
func (q *Quota) Set(key, value string) error {
	var err error
	switch key {
	case "max-flows":
		if q.MaxFlows, err = strconv.ParseInt(value, 10, 64); err != nil || q.MaxFlows < 0 {
			return fmt.Errorf("bad max-flows %q", value)
		}
	case "max-buffered":
		if q.MaxBufferedBytes, err = ParseSize(value); err != nil {
			return fmt.Errorf("bad max-buffered: %w", err)
		}
	default:
		return fmt.Errorf("unknown quota option %q (max-flows, max-buffered)", key)
	}
	return nil
}

// Tenant is one registered rule-set serving identity. Instances are
// immutable where the dispatch hot path reads them (id, index, telemetry
// block); mutable serving state (generation, quota, spec) is atomic.
type Tenant struct {
	id  string
	idx uint32
	gen atomic.Uint64 // current generation, as the engine numbered it

	// The telemetry block persists across delete/re-create of the same
	// id (metric series are forever in the registry anyway), so governor
	// components and scrapers never see a tenant id's accounting reset
	// to a different instance.
	*telemetryBlock

	spec atomic.Pointer[PutSpec] // the Put now serving
}

// ID returns the tenant's registered id.
func (t *Tenant) ID() string { return t.id }

// Index returns the tenant's dispatch index — the value carried in
// pcap.FlowKey.Tenant. Indexes are assigned once and never reused, so a
// stale tag can never alias a different tenant.
func (t *Tenant) Index() uint32 { return t.idx }

// Generation returns the tenant's current (last installed) generation.
func (t *Tenant) Generation() uint64 { return t.gen.Load() }

// Acct returns the tenant's shared accounting/quota block, handed to
// every shard's assembler with the tenant's generations.
func (t *Tenant) Acct() *flow.TenantAcct { return t.acct }

// Events returns the tenant's private match-event ring.
func (t *Tenant) Events() *telemetry.EventRing { return t.events }

// CountMatch records one confirmed match for the tenant: the per-tenant
// counter and the per-tenant event ring. Safe from any goroutine.
func (t *Tenant) CountMatch(ev telemetry.Event) {
	t.matches.Inc()
	t.events.Add(ev)
}

// Matches returns the tenant's confirmed-match total.
func (t *Tenant) Matches() int64 { return t.matches.Value() }

// Quota returns the tenant's current quota.
func (t *Tenant) Quota() Quota {
	return Quota{
		MaxFlows:         t.acct.MaxFlows.Load(),
		MaxBufferedBytes: t.acct.MaxBufferedBytes.Load(),
	}
}

// SetQuota replaces the tenant's quota; effective immediately on every
// shard (the assemblers read the atomics per decision).
func (t *Tenant) SetQuota(q Quota) {
	t.acct.MaxFlows.Store(q.MaxFlows)
	t.acct.MaxBufferedBytes.Store(q.MaxBufferedBytes)
}

// Sources returns the per-rule source strings of the tenant's current
// rule set (index = rule id - 1), for match attribution.
func (t *Tenant) Sources() []string { return t.spec.Load().Sources }

// Rules returns the raw rule text last installed for the tenant.
func (t *Tenant) Rules() []byte { return t.spec.Load().Rules }

// Build returns the build shape of the tenant's current rule set.
func (t *Tenant) Build() core.BuildStats { return t.spec.Load().Build }

// Stats is one tenant's JSON-serializable snapshot (admin /statsz and
// GET /tenants).
type Stats struct {
	ID               string   `json:"id"`
	Index            uint32   `json:"index"`
	Generation       uint64   `json:"generation"`
	MaxFlows         int64    `json:"max_flows,omitempty"`
	MaxBufferedBytes int64    `json:"max_buffered_bytes,omitempty"`
	LiveFlows        int64    `json:"live_flows"`
	BufferedBytes    int64    `json:"buffered_bytes"`
	Matches          int64    `json:"matches"`
	FlowQuotaDrops   int64    `json:"flow_quota_drops"`
	ByteQuotaDrops   int64    `json:"byte_quota_drops"`
	Rules            int      `json:"rules"`
	Sources          []string `json:"sources,omitempty"`
}

// Stats snapshots the tenant. The default entry's traffic counters read
// zero: untagged traffic is accounted engine-wide, not under a tenant.
func (t *Tenant) Stats() Stats {
	src := t.Sources()
	return Stats{
		ID:               t.id,
		Index:            t.idx,
		Generation:       t.gen.Load(),
		MaxFlows:         t.acct.MaxFlows.Load(),
		MaxBufferedBytes: t.acct.MaxBufferedBytes.Load(),
		LiveFlows:        t.acct.LiveFlows.Value(),
		BufferedBytes:    t.acct.BufferedBytes.Value(),
		Matches:          t.matches.Value(),
		FlowQuotaDrops:   t.acct.FlowQuotaDrops.Value(),
		ByteQuotaDrops:   t.acct.ByteQuotaDrops.Value(),
		Rules:            len(src),
		Sources:          src,
	}
}

// Swapper is the serving engine a Registry drives. *engine.Engine
// implements it; the indirection keeps the import pointing engine →
// tenant (the dispatch hot path needs Lookup) rather than both ways.
type Swapper interface {
	// ReloadTenant installs newRunner as the tenant's next generation on
	// every shard and returns the generation number. reset restarts the
	// tenant's live flows on the new set; false drains them on the old.
	ReloadTenant(t *Tenant, newRunner func() flow.Runner, reset bool) (uint64, error)
	// DropTenant tears down the tenant's flows and serving state on
	// every shard.
	DropTenant(t *Tenant) error
}

// Config wires a Registry. All fields are optional.
type Config struct {
	// Metrics, when non-nil, receives tenant-labeled mfa_tenant_* series
	// as tenants are created.
	Metrics *telemetry.Registry
	// Governor, when non-nil, gets one named component per tenant
	// ("tenant:<id>", the tenant's buffered reassembly bytes) so tenant
	// memory counts against the daemon ceiling under its own name.
	Governor *guard.Governor
}

// EventRingLen bounds each tenant's match-event ring; mfaserve's /events
// ring holds as many.
const EventRingLen = 1024

// telemetryBlock is the per-id accounting that survives delete and
// re-create, so a recreated tenant keeps its metric series, its event
// history and its governor component.
type telemetryBlock struct {
	acct     *flow.TenantAcct
	matches  *telemetry.Counter
	events   *telemetry.EventRing
	genGauge *telemetry.Gauge
	governed bool // registered as a guard.Governor component
}

// Registry maps tenant ids to serving state. One Registry serves one
// engine. All mutation is serialized on an internal mutex; Lookup and
// Tag are lock-free for the dispatch path.
type Registry struct {
	cfg Config

	mu     sync.Mutex
	eng    Swapper
	byID   map[string]*Tenant
	blocks map[string]*telemetryBlock
	next   uint32 // last assigned nonzero index
	cidrs  []CIDRRule

	// byIdx is the dispatch index: slot idx holds the tenant (slot 0 the
	// default entry), nil after delete. Copy-on-write under mu, read
	// lock-free.
	byIdx atomic.Pointer[[]*Tenant]
	// tags is the resolved CIDR classifier table (classify.go).
	tags atomic.Pointer[[]tagEntry]
}

// NewRegistry creates an empty registry. Call Bind before Put.
func NewRegistry(cfg Config) *Registry {
	return &Registry{
		cfg:    cfg,
		byID:   make(map[string]*Tenant),
		blocks: make(map[string]*telemetryBlock),
	}
}

// Bind attaches the serving engine. The registry and engine reference
// each other (engine dispatch reads Lookup; registry CRUD drives
// reloads), so construction is two-phase: NewRegistry → engine.New with
// the registry in its Config → Bind.
func (r *Registry) Bind(s Swapper) {
	r.mu.Lock()
	r.eng = s
	r.mu.Unlock()
}

// PutSpec describes one Put: the compiled rule set and its metadata.
// The caller is expected to have run the SelfCheck gate on the compiled
// set before calling Put. A stored spec is immutable.
type PutSpec struct {
	// NewRunner allocates start-of-flow matching contexts for the
	// tenant's compiled rule set. Required.
	NewRunner func() flow.Runner
	// Sources are the per-rule source strings (index = rule id).
	Sources []string
	// Rules is the raw rule text, kept for admin GET round-trips.
	Rules []byte
	// Build is the compiled set's build shape (the mfa_build_* gauges and
	// /statsz report the default entry's).
	Build core.BuildStats
	// Quota bounds the tenant; zero fields mean unlimited.
	Quota Quota
	// Reset restarts the tenant's live flows on the new rule set; false
	// drains them on the old.
	Reset bool
}

// Put creates tenant id or replaces its rule set, swapping in the next
// (tenant, generation) pair on every shard. A new tenant becomes
// visible to dispatch only after its first generation is installed on
// all shards, so a tagged segment can never race its own rule set. On
// error the registry and the tenant's serving state are unchanged.
func (r *Registry) Put(id string, spec PutSpec) (*Tenant, uint64, error) {
	if err := ValidateID(id); err != nil {
		return nil, 0, err
	}
	if spec.NewRunner == nil {
		return nil, 0, fmt.Errorf("tenant %q: nil runner factory", id)
	}
	if id == DefaultID && spec.Quota != (Quota{}) {
		return nil, 0, fmt.Errorf("tenant %q: takes no quota (the engine-wide caps bound the default set)", id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.eng == nil {
		return nil, 0, fmt.Errorf("tenant %q: registry not bound to an engine", id)
	}
	t := r.byID[id]
	fresh := t == nil
	if fresh {
		blk := r.blocks[id]
		if blk == nil {
			blk = r.newBlock(id)
			r.blocks[id] = blk
		}
		t = &Tenant{id: id, telemetryBlock: blk}
		if id != DefaultID {
			t.idx = r.next + 1
		}
	}
	gen, err := r.eng.ReloadTenant(t, spec.NewRunner, spec.Reset)
	if err != nil {
		return nil, 0, err
	}
	// The swap is in: only now does the tenant's record change, so a
	// failed Put leaves the quota and rule text of what is still serving.
	t.gen.Store(gen)
	t.SetQuota(spec.Quota)
	t.spec.Store(&spec)
	if t.genGauge != nil {
		t.genGauge.Set(int64(gen))
	}
	if fresh {
		r.next = max(r.next, t.idx)
		r.byID[id] = t
		r.setSlotLocked(t.idx, t)
		if gov := r.cfg.Governor; gov != nil && id != DefaultID && !t.governed {
			gov.Register("tenant:"+id, t.acct.BufferedBytes.Value)
			t.governed = true
		}
		r.retagLocked()
	}
	return t, gen, nil
}

// Delete removes tenant id: it disappears from dispatch first (new
// segments carrying its index drop as unknown), then every shard tears
// down its flows and serving state. The id may be re-Put later; it will
// get a fresh index but keep its metric series and event history. The
// default entry is refused with ErrDefault.
func (r *Registry) Delete(id string) error {
	if id == DefaultID {
		return ErrDefault
	}
	r.mu.Lock()
	t := r.byID[id]
	if t == nil {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknown, id)
	}
	delete(r.byID, id)
	r.setSlotLocked(t.idx, nil)
	r.retagLocked()
	eng := r.eng
	r.mu.Unlock()
	if eng != nil {
		return eng.DropTenant(t)
	}
	return nil
}

// Lookup resolves a dispatch index to its tenant, lock-free. nil means
// unknown (never assigned, or deleted); index 0 is the default entry.
func (r *Registry) Lookup(idx uint32) *Tenant {
	s := r.byIdx.Load()
	if s == nil || int(idx) >= len(*s) {
		return nil
	}
	return (*s)[idx]
}

// ByID resolves a tenant id.
func (r *Registry) ByID(id string) *Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byID[id]
}

// List snapshots every registered tenant, ordered by index.
func (r *Registry) List() []Stats {
	s := r.byIdx.Load()
	if s == nil {
		return nil
	}
	out := make([]Stats, 0, len(*s))
	for _, t := range *s {
		if t != nil {
			out = append(out, t.Stats())
		}
	}
	return out
}

// BufferedBytes sums every registered tenant's buffered reassembly
// bytes. The engine subtracts this from its own governor component so
// tenant bytes are attributed to their "tenant:<id>" components instead
// of double-counting.
func (r *Registry) BufferedBytes() int64 {
	s := r.byIdx.Load()
	if s == nil {
		return 0
	}
	var n int64
	for _, t := range *s {
		if t != nil {
			n += t.acct.BufferedBytes.Value()
		}
	}
	return n
}

// setSlotLocked publishes t (nil: nobody) at dispatch index idx,
// copy-on-write.
func (r *Registry) setSlotLocked(idx uint32, t *Tenant) {
	var next []*Tenant
	if old := r.byIdx.Load(); old != nil {
		next = append(next, *old...)
	}
	for int(idx) >= len(next) {
		next = append(next, nil)
	}
	next[idx] = t
	r.byIdx.Store(&next)
}

// newBlock builds one id's persistent telemetry block, registering its
// tenant-labeled series when a metrics registry is configured. Counter
// and Gauge registration is idempotent in telemetry.Registry, so a
// block rebuilt after process-internal churn resolves to the same
// series.
func (r *Registry) newBlock(id string) *telemetryBlock {
	blk := &telemetryBlock{
		acct:   &flow.TenantAcct{},
		events: telemetry.NewEventRing(EventRingLen),
	}
	// The default entry's series are the engine-wide ones (mfa_generation,
	// mfa_engine_*): it registers nothing under the tenant label.
	if reg := r.cfg.Metrics; reg != nil && id != DefaultID {
		l := telemetry.L("tenant", id)
		blk.acct.LiveFlows = reg.Gauge("mfa_tenant_live_flows",
			"Live flows per tenant.", l)
		blk.acct.BufferedBytes = reg.Gauge("mfa_tenant_buffered_bytes",
			"Out-of-order reassembly payload bytes buffered per tenant.", l)
		blk.acct.FlowQuotaDrops = reg.Counter("mfa_tenant_quota_flow_drops_total",
			"Segments dropped because the tenant hit its max-flows quota.", l)
		blk.acct.ByteQuotaDrops = reg.Counter("mfa_tenant_quota_byte_drops_total",
			"Segments dropped because the tenant hit its max-buffered-bytes quota.", l)
		blk.matches = reg.Counter("mfa_tenant_matches_total",
			"Confirmed matches per tenant.", l)
		blk.genGauge = reg.Gauge("mfa_tenant_generation",
			"Current rule-set generation per tenant.", l)
	} else {
		blk.acct.LiveFlows = new(telemetry.Gauge)
		blk.acct.BufferedBytes = new(telemetry.Gauge)
		blk.acct.FlowQuotaDrops = new(telemetry.Counter)
		blk.acct.ByteQuotaDrops = new(telemetry.Counter)
		blk.matches = new(telemetry.Counter)
	}
	return blk
}

// ValidateID enforces the tenant-id grammar: 1–64 characters drawn from
// [A-Za-z0-9_.-], not starting with a separator — safe as a metric
// label value, a URL path element and a query parameter.
func ValidateID(id string) error {
	if id == "" || len(id) > 64 {
		return fmt.Errorf("tenant id %q: must be 1-64 characters", id)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			(i > 0 && (c == '_' || c == '.' || c == '-'))
		if !ok {
			return fmt.Errorf("tenant id %q: invalid character %q at %d", id, c, i)
		}
	}
	return nil
}
