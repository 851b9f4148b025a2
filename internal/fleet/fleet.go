// Package fleet is the multi-tenant hosting layer over the model
// registry: the piece that turns one-trace MRC construction into a
// cache-fleet advisor. It owns a concurrency-safe tenant registry
// (per-tenant model choice, sampling rate and bucket ratio via
// model.Options, per-tenant telemetry), enforces a strict global
// memory budget from model footprint accounting, and partitions a
// shared cache budget across tenants by marginal miss-ratio gain
// (allocate.go).
//
// Locking: the registry RWMutex guards only the tenant map; each
// tenant's mutex serializes access to its (serial) model, one batch
// at a time and never across a read of the ingest source. No path
// acquires the registry lock while holding a tenant lock, so the two
// levels cannot deadlock. Footprints are cached in per-tenant atomics,
// making budget checks and /metrics scrapes pure atomic reads. An
// evicted tenant is closed under its lock, so a batch either completes
// before the eviction or finds the tenant closed and goes to the fresh
// tenant the id then resolves to, created with the default spec.
package fleet

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"krr/internal/histogram"
	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/telemetry"
	"krr/internal/trace"
)

// ErrNoTenant is returned for operations on unknown tenant ids.
var ErrNoTenant = errors.New("fleet: no such tenant")

// ErrTenantExists is returned by Create for a taken id.
var ErrTenantExists = errors.New("fleet: tenant exists")

// Spec is a tenant's model choice.
type Spec struct {
	// Model is a model-registry name or alias ("krr", "krr-bucket",
	// "olken", ...).
	Model string
	// Options configure the model (K, seed, sampling rate, byte mode,
	// workers, bucket ratio).
	Options model.Options
}

// Config shapes a Registry.
type Config struct {
	// Default is the spec used when ingest auto-creates a tenant.
	// Zero value means {"krr", defaults}.
	Default Spec
	// MemoryBudgetBytes caps the summed model footprints; exceeding it
	// evicts least-recently-used tenants. 0 means unlimited.
	MemoryBudgetBytes int64
	// MaxTenants caps the tenant count; creating past it evicts the
	// least-recently-used tenant. 0 means unlimited.
	MaxTenants int
	// IdleTTL is the idle horizon for SweepIdle. 0 disables sweeping.
	IdleTTL time.Duration
	// Clock supplies time (tests inject a fake). Nil means time.Now.
	Clock func() time.Time
}

func (c *Config) fill() {
	if c.Default.Model == "" {
		c.Default.Model = "krr"
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
}

// Tenant is one hosted shadow model.
type Tenant struct {
	// ID is the registry key.
	ID string
	// Spec is the model choice the tenant was built with.
	Spec Spec

	// mu serializes model access: serial models tolerate one caller at
	// a time, and Footprint must not race Process.
	mu    sync.Mutex
	model model.Model
	// closed is set, under mu, when the tenant is evicted; its model
	// then takes no more requests.
	closed bool

	set       *telemetry.Set
	requests  telemetry.Counter
	reads     telemetry.Counter
	batches   uint64 // guarded by mu; drives footprint refresh cadence
	footprint atomic.Int64
	lastUse   atomic.Int64 // unix nanos
	created   time.Time
}

// Set returns the tenant's telemetry set (model metrics under
// krr_model_, tenant counters under tenant_).
func (t *Tenant) Set() *telemetry.Set { return t.set }

// Footprint returns the tenant's cached model footprint in bytes
// (refreshed after every ingest).
func (t *Tenant) Footprint() int64 { return t.footprint.Load() }

// touch refreshes the LRU clock.
func (t *Tenant) touch(now time.Time) { t.lastUse.Store(now.UnixNano()) }

// ErrNoByteCurve is returned for byte-curve reads of a tenant whose
// model was not built in a byte mode.
var ErrNoByteCurve = errors.New("fleet: tenant model has no byte curve")

// histCopies recycles the object-histogram copies curve reads take
// under the tenant lock.
var histCopies = sync.Pool{New: func() any { return new(histogram.Dense) }}

// CurveRead is one point-in-time read of a tenant curve. Only the read
// itself holds the tenant lock — for a model with a dense object
// histogram it is a copy of that histogram into a pooled buffer — and
// evaluating, writing or building the curve happens after the lock is
// released. Call Release when done; a CurveRead is not safe for
// concurrent use.
type CurveRead struct {
	// Stats are the tenant's stream counters at the moment of the read.
	Stats model.Stats
	hist  *histogram.Dense // pooled copy; nil when curve is set
	scale float64
	curve *mrc.Curve
}

// Eval returns the miss ratio at a cache size, without allocating for
// a histogram copy.
func (c *CurveRead) Eval(size uint64) float64 {
	if c.hist != nil {
		return mrc.HistCurve{H: c.hist, Scale: c.scale}.Eval(size)
	}
	return c.curve.Eval(size)
}

// WriteJSON writes the curve, downsampled to at most points breakpoints
// when points > 0, byte-identical to Curve().Downsample(points).WriteJSON(w).
func (c *CurveRead) WriteJSON(w io.Writer, points int) error {
	if c.hist != nil {
		return mrc.HistCurve{H: c.hist, Scale: c.scale}.WriteJSON(w, points)
	}
	return c.curve.Downsample(points).WriteJSON(w)
}

// Curve builds the curve.
func (c *CurveRead) Curve() *mrc.Curve {
	if c.hist != nil {
		return mrc.FromHistogram(c.hist, c.scale)
	}
	return c.curve
}

// Release returns the read's histogram copy to the pool. The read is
// unusable afterwards.
func (c *CurveRead) Release() {
	if c.hist != nil {
		histCopies.Put(c.hist)
		c.hist = nil
	}
}

// Read reads the tenant's live object curve, or its byte curve when
// bytes is set. Object reads of a model with a dense object histogram
// hold the tenant lock only for a histogram copy (Model.ReadObjectHist);
// every other read takes a model snapshot under the lock, as Snapshot
// does.
func (t *Tenant) Read(bytes bool) (CurveRead, error) {
	t.reads.Inc()
	if !bytes {
		h := histCopies.Get().(*histogram.Dense)
		t.mu.Lock()
		scale, st, ok := t.model.ReadObjectHist(h)
		t.mu.Unlock()
		if ok {
			return CurveRead{Stats: st, hist: h, scale: scale}, nil
		}
		histCopies.Put(h)
	}
	t.mu.Lock()
	snap := t.model.Snapshot()
	t.mu.Unlock()
	c := snap.Object
	if bytes {
		if snap.Byte == nil {
			return CurveRead{}, ErrNoByteCurve
		}
		c = snap.Byte
	}
	return CurveRead{Stats: snap.Stats, curve: c}, nil
}

// Snapshot reads the tenant's live curves. Without byte curves it is
// an object Read whose curve is built after the tenant lock is
// released.
func (t *Tenant) Snapshot() model.Snapshot {
	if t.Spec.Options.Bytes == model.BytesOff {
		rd, _ := t.Read(false) // object reads cannot fail
		defer rd.Release()
		return model.Snapshot{Object: rd.Curve(), Stats: rd.Stats}
	}
	t.reads.Inc()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.model.Snapshot()
}

// Stats reports the tenant's stream counters.
func (t *Tenant) Stats() model.Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.model.Stats()
}

// footprintEvery is the batch cadence of footprint refreshes on the
// IngestBatch hot path. Footprint reads quiesce sharded pipelines —
// far too expensive per frame — so the cached value may lag by up to
// footprintEvery-1 batches (at most a few MiB of drift at typical
// frame sizes) between refreshes.
const footprintEvery = 64

// IngestBatch feeds one decoded request batch to the tenant's model,
// the only path requests take into it. The cached footprint is
// refreshed only every footprintEvery batches; the returned bool
// reports whether this call refreshed it, and callers re-check the
// memory budget only then. A tenant evicted before the batch took its
// lock takes none of it and returns model.ErrClosed.
func (t *Tenant) IngestBatch(reqs []trace.Request) (refreshed bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false, model.ErrClosed
	}
	err = t.model.ProcessBatch(reqs)
	t.requests.Add(uint64(len(reqs)))
	t.batches++
	if t.batches%footprintEvery == 0 {
		t.footprint.Store(t.model.Footprint())
		refreshed = true
	}
	return refreshed, err
}

// close marks the tenant closed and releases its model's resources
// (sharded pipelines hold worker goroutines).
func (t *Tenant) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	_ = t.model.Close() // no model's Close fails
}

// TenantInfo is a read-only listing row.
type TenantInfo struct {
	ID        string    `json:"id"`
	Model     string    `json:"model"`
	Requests  uint64    `json:"requests"`
	Footprint int64     `json:"footprint_bytes"`
	Created   time.Time `json:"created"`
	LastUsed  time.Time `json:"last_used"`
}

// Registry hosts the tenant fleet.
type Registry struct {
	cfg Config

	mu      sync.RWMutex
	tenants map[string]*Tenant

	created         telemetry.Counter
	evictedTTL      telemetry.Counter
	evictedBudget   telemetry.Counter
	evictedCapacity telemetry.Counter
	evictedManual   telemetry.Counter
	allocations     telemetry.Counter
}

// NewRegistry builds an empty fleet registry.
func NewRegistry(cfg Config) *Registry {
	cfg.fill()
	return &Registry{cfg: cfg, tenants: make(map[string]*Tenant)}
}

// newTenant builds a tenant (no locks held).
func (r *Registry) newTenant(id string, spec Spec) (*Tenant, error) {
	if spec.Model == "" {
		spec = r.cfg.Default
	}
	m, err := model.New(spec.Model, spec.Options)
	if err != nil {
		return nil, err
	}
	now := r.cfg.Clock()
	t := &Tenant{
		ID:      id,
		Spec:    spec,
		model:   m,
		set:     telemetry.NewSet(),
		created: now,
	}
	t.touch(now)
	m.MetricsInto(t.set, "krr_model_")
	t.set.CounterFunc("tenant_requests_total", "requests ingested for this tenant", t.requests.Load)
	t.set.CounterFunc("tenant_curve_reads_total", "live curve reads (snapshots, queries, allocation demands)", t.reads.Load)
	t.set.GaugeFunc("tenant_footprint_bytes", "cached model footprint in bytes", func() float64 {
		return float64(t.footprint.Load())
	})
	return t, nil
}

// Create registers a new tenant with an explicit spec. A zero-Model
// spec uses the configured default.
func (r *Registry) Create(id string, spec Spec) (*Tenant, error) {
	if id == "" {
		return nil, errors.New("fleet: empty tenant id")
	}
	t, err := r.newTenant(id, spec)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if _, dup := r.tenants[id]; dup {
		r.mu.Unlock()
		t.close()
		return nil, fmt.Errorf("%w: %s", ErrTenantExists, id)
	}
	r.tenants[id] = t
	evicted := r.enforceCapacityLocked(id)
	r.mu.Unlock()
	r.created.Inc()
	closeAll(evicted)
	return t, nil
}

// Ensure returns the tenant, creating it with the default spec when
// absent — the ingest-side auto-create path.
func (r *Registry) Ensure(id string) (*Tenant, error) {
	r.mu.RLock()
	t, ok := r.tenants[id]
	r.mu.RUnlock()
	if ok {
		return t, nil
	}
	t, err := r.Create(id, r.cfg.Default)
	if errors.Is(err, ErrTenantExists) {
		// Lost the create race; the winner's tenant is the one.
		r.mu.RLock()
		t, ok = r.tenants[id]
		r.mu.RUnlock()
		if ok {
			return t, nil
		}
		return nil, ErrNoTenant
	}
	return t, err
}

// Get looks a tenant up.
func (r *Registry) Get(id string) (*Tenant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[id]
	return t, ok
}

// Evict removes a tenant, releasing its model resources.
func (r *Registry) Evict(id string) bool {
	r.mu.Lock()
	t, ok := r.tenants[id]
	if ok {
		delete(r.tenants, id)
	}
	r.mu.Unlock()
	if !ok {
		return false
	}
	r.evictedManual.Inc()
	t.close()
	return true
}

// Len returns the tenant count.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tenants)
}

// Footprint returns the summed cached footprints of all tenants.
func (r *Registry) Footprint() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var total int64
	for _, t := range r.tenants {
		total += t.footprint.Load()
	}
	return total
}

// ingestBatchLen is Ingest's batch length: the wire frame length of
// krrload and krrbench, so both front ends feed batches of one size.
const ingestBatchLen = 4096

type ingestBuf = [ingestBatchLen]trace.Request

var ingestBufs = sync.Pool{New: func() any { return new(ingestBuf) }}

// decodedBatch is one batch Ingest's decoder hands over: n requests in
// buf, then the read error that ended the batch, if any.
type decodedBatch struct {
	buf *ingestBuf
	n   int
	err error
}

// Ingest drains a reader into the tenant (auto-created when absent) as
// a loop of IngestBatch calls. Decoding is pipelined with the model:
// a decoder goroutine reads the next batch into one of two pooled
// batches while the caller feeds the other to IngestBatch, as the wire
// plane's reader and worker do. No batch is decoded under the tenant
// lock, so a slow reader, such as an HTTP body still uploading, never
// blocks the tenant. When the reader ends, the footprint is refreshed
// and the memory budget enforced once. It returns the number of
// requests ingested, including those before a read error, and stops at
// the first read or IngestBatch error.
//
// Ingest returns only once the decoder has exited, so the caller may
// release the reader's resources afterwards. After an IngestBatch
// error that means waiting out the batch being read, if any.
func (r *Registry) Ingest(id string, reader trace.Reader) (uint64, error) {
	if _, err := r.Ensure(id); err != nil {
		return 0, err
	}
	// Both channels hold at most the two batches in circulation, so no
	// send blocks.
	free := make(chan *ingestBuf, 2)
	full := make(chan decodedBatch, 2)
	stop := make(chan struct{})
	free <- ingestBufs.Get().(*ingestBuf)
	free <- ingestBufs.Get().(*ingestBuf)
	go func() {
		defer close(full)
		for {
			var buf *ingestBuf
			select {
			case buf = <-free:
			case <-stop:
				return
			}
			k, err := trace.ReadBatch(reader, buf[:])
			full <- decodedBatch{buf, k, err}
			if err != nil {
				return
			}
		}
	}()

	var n uint64
	var err error
	for {
		d := <-full
		if d.n > 0 {
			if err = r.IngestBatch(id, d.buf[:d.n]); err != nil {
				ingestBufs.Put(d.buf)
				break
			}
			n += uint64(d.n)
		}
		if err = d.err; err != nil {
			ingestBufs.Put(d.buf)
			break
		}
		free <- d.buf
	}
	close(stop)
	for d := range full { // returns once the decoder has exited
		ingestBufs.Put(d.buf)
	}
	if len(free) > 0 {
		ingestBufs.Put(<-free)
	}

	if t, ok := r.Get(id); ok {
		t.mu.Lock()
		t.footprint.Store(t.model.Footprint())
		t.mu.Unlock()
		r.enforceBudget(id)
	}
	if errors.Is(err, io.EOF) {
		err = nil
	}
	return n, err
}

// IngestBatch feeds one decoded batch to the tenant (auto-created when
// absent) — the wire data plane's sink and Ingest's step. A tenant
// evicted between the lookup and the batch is looked up again, so the
// batch lands in the tenant the id resolves to afterwards. Budget
// enforcement rides the tenant's amortized footprint refresh.
func (r *Registry) IngestBatch(id string, reqs []trace.Request) error {
	for {
		t, err := r.Ensure(id)
		if err != nil {
			return err
		}
		t.touch(r.cfg.Clock())
		refreshed, err := t.IngestBatch(reqs)
		if errors.Is(err, model.ErrClosed) {
			continue
		}
		if refreshed {
			r.enforceBudget(id)
		}
		return err
	}
}

// Snapshot reads a tenant's live curves.
func (r *Registry) Snapshot(id string) (model.Snapshot, error) {
	t, err := r.use(id)
	if err != nil {
		return model.Snapshot{}, err
	}
	return t.Snapshot(), nil
}

// Read reads one of a tenant's live curves (see Tenant.Read).
func (r *Registry) Read(id string, bytes bool) (CurveRead, error) {
	t, err := r.use(id)
	if err != nil {
		return CurveRead{}, err
	}
	return t.Read(bytes)
}

// use looks a tenant up for a read and refreshes its LRU clock.
func (r *Registry) use(id string) (*Tenant, error) {
	t, ok := r.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTenant, id)
	}
	t.touch(r.cfg.Clock())
	return t, nil
}

// List returns tenant rows sorted by id.
func (r *Registry) List() []TenantInfo {
	r.mu.RLock()
	out := make([]TenantInfo, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, TenantInfo{
			ID:        t.ID,
			Model:     t.Spec.Model,
			Requests:  t.requests.Load(),
			Footprint: t.footprint.Load(),
			Created:   t.created,
			LastUsed:  time.Unix(0, t.lastUse.Load()),
		})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// lruLocked returns the least-recently-used tenant, excluding one
// protected id ("" protects nothing). Ties break on id so eviction
// order is deterministic under a frozen clock.
func (r *Registry) lruLocked(protect string) *Tenant {
	var victim *Tenant
	for id, t := range r.tenants {
		if id == protect {
			continue
		}
		if victim == nil {
			victim = t
			continue
		}
		lu, lv := t.lastUse.Load(), victim.lastUse.Load()
		if lu < lv || (lu == lv && t.ID < victim.ID) {
			victim = t
		}
	}
	return victim
}

// enforceCapacityLocked evicts LRU tenants past MaxTenants, protecting
// the just-created id. Caller holds the write lock; returned tenants
// are closed by the caller after unlocking.
func (r *Registry) enforceCapacityLocked(protect string) []*Tenant {
	if r.cfg.MaxTenants <= 0 {
		return nil
	}
	var out []*Tenant
	for len(r.tenants) > r.cfg.MaxTenants {
		victim := r.lruLocked(protect)
		if victim == nil {
			break
		}
		delete(r.tenants, victim.ID)
		r.evictedCapacity.Inc()
		out = append(out, victim)
	}
	return out
}

// enforceBudget evicts LRU tenants while the summed footprint exceeds
// the configured memory budget. The protected id (the tenant that just
// ingested) survives even if it alone exceeds the budget — evicting
// the data that was just paid for would make ingest a no-op.
func (r *Registry) enforceBudget(protect string) {
	if r.cfg.MemoryBudgetBytes <= 0 {
		return
	}
	var evicted []*Tenant
	r.mu.Lock()
	for {
		var total int64
		for _, t := range r.tenants {
			total += t.footprint.Load()
		}
		if total <= r.cfg.MemoryBudgetBytes {
			break
		}
		victim := r.lruLocked(protect)
		if victim == nil {
			break
		}
		delete(r.tenants, victim.ID)
		r.evictedBudget.Inc()
		evicted = append(evicted, victim)
	}
	r.mu.Unlock()
	closeAll(evicted)
}

// SweepIdle evicts tenants idle longer than IdleTTL, returning how
// many were removed.
func (r *Registry) SweepIdle() int {
	if r.cfg.IdleTTL <= 0 {
		return 0
	}
	cutoff := r.cfg.Clock().Add(-r.cfg.IdleTTL).UnixNano()
	var evicted []*Tenant
	r.mu.Lock()
	for id, t := range r.tenants {
		if t.lastUse.Load() < cutoff {
			delete(r.tenants, id)
			r.evictedTTL.Inc()
			evicted = append(evicted, t)
		}
	}
	r.mu.Unlock()
	closeAll(evicted)
	return len(evicted)
}

func closeAll(ts []*Tenant) {
	for _, t := range ts {
		t.close()
	}
}

// Demands snapshots every tenant's live curve for the optimizer.
// unit is "objects" or "bytes"; byte demands require every tenant to
// run a byte-capable model. Tenants whose curves are still empty
// (no requests) are skipped.
func (r *Registry) Demands(unit string) ([]Demand, error) {
	r.mu.RLock()
	tenants := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tenants = append(tenants, t)
	}
	r.mu.RUnlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].ID < tenants[j].ID })

	var demands []Demand
	for _, t := range tenants {
		rd, err := t.Read(unit == "bytes")
		if err != nil { // ErrNoByteCurve
			return nil, fmt.Errorf("fleet: tenant %s has no byte curve (model %s not in a byte mode)", t.ID, t.Spec.Model)
		}
		curve := rd.Curve()
		rd.Release()
		if rd.Stats.Seen == 0 || curve == nil {
			continue
		}
		demands = append(demands, Demand{
			Tenant: t.ID,
			Curve:  curve,
			Weight: float64(rd.Stats.Seen),
		})
	}
	return demands, nil
}

// Allocate waterfills budget across the live tenants by marginal
// miss-ratio gain.
func (r *Registry) Allocate(budget uint64, unit string) (Plan, error) {
	demands, err := r.Demands(unit)
	if err != nil {
		return Plan{}, err
	}
	return r.Waterfill(demands, budget, unit), nil
}

// Waterfill plans budget over demands already read by Demands, so a
// caller that also wants the baseline splits computes all of them from
// one read of every tenant.
func (r *Registry) Waterfill(demands []Demand, budget uint64, unit string) Plan {
	r.allocations.Inc()
	plan := Waterfill(demands, budget)
	if unit == "bytes" {
		plan.Unit = "bytes"
	}
	return plan
}

// MetricsInto registers fleet-level metrics under prefix.
func (r *Registry) MetricsInto(set *telemetry.Set, prefix string) {
	set.GaugeFunc(prefix+"tenants", "live tenant count", func() float64 {
		return float64(r.Len())
	})
	set.GaugeFunc(prefix+"footprint_bytes", "summed cached model footprints", func() float64 {
		return float64(r.Footprint())
	})
	set.GaugeFunc(prefix+"memory_budget_bytes", "configured global memory budget (0 = unlimited)", func() float64 {
		return float64(r.cfg.MemoryBudgetBytes)
	})
	set.CounterFunc(prefix+"tenants_created_total", "tenants created", r.created.Load)
	set.CounterFunc(prefix+"evictions_ttl_total", "tenants evicted by idle TTL", r.evictedTTL.Load)
	set.CounterFunc(prefix+"evictions_budget_total", "tenants evicted by memory budget", r.evictedBudget.Load)
	set.CounterFunc(prefix+"evictions_capacity_total", "tenants evicted by MaxTenants", r.evictedCapacity.Load)
	set.CounterFunc(prefix+"evictions_manual_total", "tenants evicted by request", r.evictedManual.Load)
	set.CounterFunc(prefix+"allocations_total", "partitioning plans computed", r.allocations.Load)
}
