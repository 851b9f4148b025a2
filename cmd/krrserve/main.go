// krrserve is the fleet-advisor daemon: a registry of shadow MRC
// models (one per tenant) behind an HTTP API. Production traffic from
// many caches is mirrored in — NDJSON or the binary trace format over
// POST, routed by tenant id — and operators read live miss-ratio
// curves, fleet-wide memory accounting, and a partitioning plan that
// waterfills a shared cache budget across tenants by marginal
// miss-ratio gain. The single-tenant endpoints of earlier versions
// remain as aliases for the "default" tenant.
//
// Tenant endpoints:
//
//	GET    /tenants               list tenants (id, model, traffic,
//	                              footprint, timestamps).
//	POST   /tenants               create a tenant: {"id": "t1",
//	                              "model": "krr", "k": 5, "seed": 1,
//	                              "rate": 0.01, "workers": 2,
//	                              "bytes": "on", "bucket_ratio": 1.2}
//	                              (all fields but id optional).
//	DELETE /tenants/{id}          evict a tenant, freeing its model.
//	POST   /tenants/{id}/ingest   trace requests for one tenant;
//	                              NDJSON lines {"key": 7, "size": 200,
//	                              "op": "get"} ("key" may be a string,
//	                              hashed to 64 bits), or the binary
//	                              trace format (KRT1) with Content-Type
//	                              application/octet-stream. Unknown ids
//	                              are auto-created with the default
//	                              model spec.
//	GET    /tenants/{id}/mrc?size=N     miss ratio at one cache size,
//	                              from a live snapshot; &unit=bytes
//	                              evaluates the byte curve.
//	GET    /tenants/{id}/curve    the full curve as JSON; ?points=N
//	                              downsamples, &unit=bytes selects the
//	                              byte curve.
//	GET    /tenants/{id}/stats    stream counters.
//	GET    /allocate?budget=N     waterfill partitioning of budget
//	                              across all live tenants, with
//	                              proportional-by-traffic and uniform
//	                              baselines; &unit=bytes partitions a
//	                              byte budget (requires byte-mode
//	                              models).
//
// Process-wide:
//
//	POST /ingest, GET /mrc, /curve, /stats   aliases for the
//	                              "default" tenant.
//	GET  /metrics    Prometheus text exposition: server and fleet
//	                 metrics unlabeled, per-tenant metrics labeled
//	                 tenant="id".
//	GET  /debug/vars expvar JSON. /debug/pprof: profiling handlers.
//	GET  /healthz    liveness probe.
//
// On SIGTERM/SIGINT the server stops accepting requests, finalizes the
// default tenant's model, and writes its final curve as JSON to -final
// (or stdout).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"krr/internal/fleet"
	"krr/internal/hashing"
	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/telemetry"
	"krr/internal/trace"
	"krr/internal/wire"
)

// defaultTenant is the id behind the single-tenant legacy endpoints.
const defaultTenant = "default"

func main() {
	var (
		addr        = flag.String("addr", ":8701", "listen address")
		tcpAddr     = flag.String("tcp", "", "binary wire-protocol ingest listen address (empty = disabled)")
		queueDepth  = flag.Int("tcp-queue", 0, "per-connection wire ingest queue depth in frames (0 = default)")
		name        = flag.String("model", "krr", "default tenant model (see internal/model)")
		k           = flag.Int("k", 0, "K-LRU sampling size (0 = model default)")
		seed        = flag.Uint64("seed", 1, "model seed")
		rate        = flag.Float64("rate", 0, "spatial sampling rate in (0,1); 0 = off")
		workers     = flag.Int("workers", 1, "shard workers (>1 requires a CapSharded model)")
		bytes       = flag.String("bytes", "off", "byte mode: off|on|uniform|sizearray|fenwick")
		bucketRatio = flag.Float64("bucket-ratio", 0, "krr-bucket geometric bucket ratio (0 = default)")
		alpha       = flag.Float64("alpha", 0, "che/fagin fallback Zipf exponent for degenerate fits (0 = default)")
		memBudget   = flag.Int64("memory-budget", 0, "global model-footprint budget in bytes (0 = unlimited)")
		maxTenants  = flag.Int("max-tenants", 0, "tenant cap, LRU-evicted past it (0 = unlimited)")
		idleTTL     = flag.Duration("idle-ttl", 0, "evict tenants idle this long (0 = never)")
		final       = flag.String("final", "", "write the default tenant's final curve JSON here on shutdown (default stdout)")
	)
	flag.Parse()

	mode, ok := model.ByteModeByName(*bytes)
	if !ok {
		log.Fatalf("krrserve: unknown byte mode %q", *bytes)
	}
	srv, err := newServer(fleet.Config{
		Default: fleet.Spec{
			Model: *name,
			Options: model.Options{
				K: *k, Seed: *seed, SamplingRate: *rate, Bytes: mode,
				Workers: *workers, BucketRatio: *bucketRatio, AnalyticAlpha: *alpha,
			},
		},
		MemoryBudgetBytes: *memBudget,
		MaxTenants:        *maxTenants,
		IdleTTL:           *idleTTL,
	})
	if err != nil {
		log.Fatalf("krrserve: %v", err)
	}
	// Mirror the metric set into /debug/vars. Done here, not in
	// newServer: expvar names are process-global and panic on reuse,
	// and tests build many servers per process.
	srv.set.Publish("krrserve")

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	if *idleTTL > 0 {
		go srv.sweepLoop(ctx, *idleTTL)
	}

	// Bind every listener before serving on any, so a healthy
	// /healthz means both planes accept and a bind failure exits a
	// process that never answered.
	httpLn, wireLn, err := listen(*addr, *tcpAddr)
	if err != nil {
		log.Fatalf("krrserve: %v", err)
	}
	httpSrv := &http.Server{Handler: srv.routes()}
	// One slot per serving goroutine (HTTP, wire), so neither blocks
	// sending its exit error once main has stopped reading.
	errc := make(chan error, 2)
	var wireSrv *wire.Server
	if wireLn != nil {
		wireSrv, err = srv.serveWire(wireLn, *queueDepth, errc)
		if err != nil {
			log.Fatalf("krrserve: wire server: %v", err)
		}
		log.Printf("krrserve: wire ingest listening on %s", wireLn.Addr())
	}
	go func() { errc <- httpSrv.Serve(httpLn) }()
	log.Printf("krrserve: default model=%s listening on %s", *name, httpLn.Addr())

	select {
	case err := <-errc:
		log.Fatalf("krrserve: %v", err)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting traffic, then flush the final
	// curve — the whole point of a monitoring run is its last reading.
	log.Printf("krrserve: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if wireSrv != nil {
		wireSrv.Close() // drains every connection's queued frames
	}
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("krrserve: shutdown: %v", err)
	}
	if err := srv.writeFinal(*final); err != nil {
		log.Fatalf("krrserve: final curve: %v", err)
	}
	log.Printf("krrserve: final curve flushed")
}

// listen binds the HTTP listener and, when wireAddr is set, the wire
// ingest listener. On any failure it closes what it bound and returns
// the error, so nothing has been served.
func listen(httpAddr, wireAddr string) (httpLn, wireLn net.Listener, err error) {
	httpLn, err = net.Listen("tcp", httpAddr)
	if err != nil {
		return nil, nil, fmt.Errorf("http listener: %w", err)
	}
	if wireAddr != "" {
		wireLn, err = net.Listen("tcp", wireAddr)
		if err != nil {
			httpLn.Close()
			return nil, nil, fmt.Errorf("wire listener: %w", err)
		}
	}
	return httpLn, wireLn, nil
}

// server is the thin HTTP shell over the fleet registry: routing,
// wire formats, and process-level counters. All model hosting,
// locking, budget enforcement and partitioning live in internal/fleet.
type server struct {
	reg   *fleet.Registry
	start time.Time
	final atomic.Bool

	set        *telemetry.Set
	ingests    telemetry.Counter
	ingestErrs telemetry.Counter
	snapshots  telemetry.Counter
}

func newServer(cfg fleet.Config) (*server, error) {
	// Fail fast on an invalid default spec instead of at first ingest.
	probe, err := model.New(valueOr(cfg.Default.Model, "krr"), cfg.Default.Options)
	if err != nil {
		return nil, err
	}
	if c, ok := probe.(io.Closer); ok {
		_ = c.Close() // sharded probes hold worker goroutines
	}
	s := &server{
		reg:   fleet.NewRegistry(cfg),
		start: time.Now(),
		set:   telemetry.NewSet(),
	}
	s.set.CounterFunc("krrserve_ingest_requests_total", "trace requests accepted over HTTP", s.ingests.Load)
	s.set.CounterFunc("krrserve_ingest_errors_total", "ingest bodies rejected", s.ingestErrs.Load)
	s.set.CounterFunc("krrserve_snapshots_total", "live curve snapshots served", s.snapshots.Load)
	s.set.GaugeFunc("krrserve_uptime_seconds", "seconds since process start", func() float64 {
		return time.Since(s.start).Seconds()
	})
	s.reg.MetricsInto(s.set, "fleet_")
	return s, nil
}

func valueOr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// sweepLoop evicts idle tenants in the background.
func (s *server) sweepLoop(ctx context.Context, ttl time.Duration) {
	tick := time.NewTicker(ttl / 4)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if n := s.reg.SweepIdle(); n > 0 {
				log.Printf("krrserve: swept %d idle tenants", n)
			}
		}
	}
}

func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	// Tenant-scoped API.
	mux.HandleFunc("GET /tenants", s.handleTenantList)
	mux.HandleFunc("POST /tenants", s.handleTenantCreate)
	mux.HandleFunc("DELETE /tenants/{id}", s.handleTenantDelete)
	mux.HandleFunc("POST /tenants/{id}/ingest", s.handleIngest)
	mux.HandleFunc("GET /tenants/{id}/mrc", s.handleMRC)
	mux.HandleFunc("GET /tenants/{id}/curve", s.handleCurve)
	mux.HandleFunc("GET /tenants/{id}/stats", s.handleStats)
	mux.HandleFunc("GET /allocate", s.handleAllocate)
	// Single-tenant aliases.
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /mrc", s.handleMRC)
	mux.HandleFunc("GET /curve", s.handleCurve)
	mux.HandleFunc("GET /stats", s.handleStats)
	// Process-wide.
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// tenantID resolves the tenant a request addresses: the {id} path
// value, or the default tenant on the legacy routes.
func tenantID(r *http.Request) string {
	if id := r.PathValue("id"); id != "" {
		return id
	}
	return defaultTenant
}

// tenantSpec is the POST /tenants body.
type tenantSpec struct {
	ID          string  `json:"id"`
	Model       string  `json:"model"`
	K           int     `json:"k"`
	Seed        uint64  `json:"seed"`
	Rate        float64 `json:"rate"`
	Workers     int     `json:"workers"`
	Bytes       string  `json:"bytes"`
	BucketRatio float64 `json:"bucket_ratio"`
	Alpha       float64 `json:"alpha"`
}

func (s *server) handleTenantCreate(w http.ResponseWriter, r *http.Request) {
	var spec tenantSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		http.Error(w, fmt.Sprintf("bad spec: %v", err), http.StatusBadRequest)
		return
	}
	if spec.ID == "" {
		http.Error(w, "missing tenant id", http.StatusBadRequest)
		return
	}
	mode, ok := model.ByteModeByName(spec.Bytes)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown byte mode %q", spec.Bytes), http.StatusBadRequest)
		return
	}
	_, err := s.reg.Create(spec.ID, fleet.Spec{
		Model: spec.Model,
		Options: model.Options{
			K: spec.K, Seed: spec.Seed, SamplingRate: spec.Rate,
			Bytes: mode, Workers: spec.Workers, BucketRatio: spec.BucketRatio,
			AnalyticAlpha: spec.Alpha,
		},
	})
	if errors.Is(err, fleet.ErrTenantExists) {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusCreated)
	fmt.Fprintf(w, "{\"id\": %q}\n", spec.ID)
}

func (s *server) handleTenantList(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"tenants":         s.reg.List(),
		"footprint_bytes": s.reg.Footprint(),
	})
}

func (s *server) handleTenantDelete(w http.ResponseWriter, r *http.Request) {
	if !s.reg.Evict(r.PathValue("id")) {
		http.Error(w, "no such tenant", http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ndjsonReq is one ingest line. Key accepts either a JSON number (used
// verbatim) or a string (hashed to 64 bits), matching how real cache
// traces mix numeric block addresses and string object keys.
type ndjsonReq struct {
	Key  json.RawMessage `json:"key"`
	Size uint32          `json:"size"`
	Op   string          `json:"op"`
}

func (n ndjsonReq) request() (trace.Request, error) {
	req := trace.Request{Size: n.Size}
	if req.Size == 0 {
		req.Size = trace.DefaultObjectSize
	}
	switch n.Op {
	case "", "get":
		req.Op = trace.OpGet
	case "set":
		req.Op = trace.OpSet
	case "delete":
		req.Op = trace.OpDelete
	default:
		return req, fmt.Errorf("unknown op %q", n.Op)
	}
	if len(n.Key) == 0 {
		return req, errors.New("missing key")
	}
	var num uint64
	if err := json.Unmarshal(n.Key, &num); err == nil {
		req.Key = num
		return req, nil
	}
	var str string
	if err := json.Unmarshal(n.Key, &str); err == nil {
		req.Key = hashing.String(str)
		return req, nil
	}
	return req, fmt.Errorf("key %s is neither integer nor string", n.Key)
}

// bodyReader adapts an ingest body (binary or NDJSON) to trace.Reader.
// NDJSON goes through the allocation-free line parser in ndjson.go.
func bodyReader(r *http.Request) (trace.Reader, error) {
	if r.Header.Get("Content-Type") == "application/octet-stream" {
		return trace.NewBinaryReader(r.Body)
	}
	return newNDJSONReader(r.Body), nil
}

func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.final.Load() {
		http.Error(w, "server is finalized", http.StatusConflict)
		return
	}
	reader, err := bodyReader(r)
	if err != nil {
		s.ingestErrs.Inc()
		http.Error(w, fmt.Sprintf("bad binary trace: %v", err), http.StatusBadRequest)
		return
	}
	count, err := s.reg.Ingest(tenantID(r), reader)
	s.ingests.Add(count)
	if err != nil {
		s.ingestErrs.Inc()
		http.Error(w, fmt.Sprintf("ingest stopped after %d requests: %v", count, err),
			http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"ingested\": %d}\n", count)
}

// snapshot reads a tenant's live curves, serving 404 for unknown ids
// (the legacy default tenant is auto-created instead, so pre-ingest
// reads keep returning the empty curve as before).
func (s *server) snapshot(w http.ResponseWriter, r *http.Request) (model.Snapshot, bool) {
	id := tenantID(r)
	if id == defaultTenant {
		if _, err := s.reg.Ensure(id); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return model.Snapshot{}, false
		}
	}
	snap, err := s.reg.Snapshot(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return model.Snapshot{}, false
	}
	s.snapshots.Inc()
	return snap, true
}

// curveFrom picks the requested granularity out of a snapshot.
func curveFrom(snap model.Snapshot, r *http.Request) (*mrc.Curve, error) {
	switch unit := r.URL.Query().Get("unit"); unit {
	case "", "objects":
		return snap.Object, nil
	case "bytes":
		if snap.Byte == nil {
			return nil, errors.New("model was built without a byte mode (-bytes off)")
		}
		return snap.Byte, nil
	default:
		return nil, fmt.Errorf("unknown unit %q (want objects or bytes)", unit)
	}
}

func (s *server) handleMRC(w http.ResponseWriter, r *http.Request) {
	sizeStr := r.URL.Query().Get("size")
	size, err := strconv.ParseUint(sizeStr, 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad size %q: %v", sizeStr, err), http.StatusBadRequest)
		return
	}
	snap, ok := s.snapshot(w, r)
	if !ok {
		return
	}
	c, err := curveFrom(snap, r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"size\": %d, \"miss_ratio\": %g, \"requests\": %d}\n",
		size, c.Eval(size), snap.Stats.Seen)
}

func (s *server) handleCurve(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w, r)
	if !ok {
		return
	}
	c, err := curveFrom(snap, r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if pts := r.URL.Query().Get("points"); pts != "" {
		n, err := strconv.Atoi(pts)
		if err != nil || n < 2 {
			http.Error(w, fmt.Sprintf("bad points %q", pts), http.StatusBadRequest)
			return
		}
		c = c.Downsample(n)
	}
	w.Header().Set("Content-Type", "application/json")
	if err := c.WriteJSON(w); err != nil {
		log.Printf("krrserve: curve write: %v", err)
	}
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	id := tenantID(r)
	if id == defaultTenant {
		if _, err := s.reg.Ensure(id); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	ten, ok := s.reg.Get(id)
	if !ok {
		http.Error(w, "no such tenant", http.StatusNotFound)
		return
	}
	st := ten.Stats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"tenant":          id,
		"seen":            st.Seen,
		"sampled":         st.Sampled,
		"finalized":       st.Finalized,
		"footprint_bytes": ten.Footprint(),
		"uptime_seconds":  time.Since(s.start).Seconds(),
	})
}

func (s *server) handleAllocate(w http.ResponseWriter, r *http.Request) {
	budgetStr := r.URL.Query().Get("budget")
	budget, err := strconv.ParseUint(budgetStr, 10, 64)
	if err != nil || budget == 0 {
		http.Error(w, fmt.Sprintf("bad budget %q (want a positive integer)", budgetStr), http.StatusBadRequest)
		return
	}
	unit := r.URL.Query().Get("unit")
	if unit == "" {
		unit = "objects"
	}
	if unit != "objects" && unit != "bytes" {
		http.Error(w, fmt.Sprintf("unknown unit %q (want objects or bytes)", unit), http.StatusBadRequest)
		return
	}
	demands, err := s.reg.Demands(unit)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	plan, err := s.reg.Allocate(budget, unit)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := plan.Feasible(); err != nil {
		http.Error(w, fmt.Sprintf("internal: %v", err), http.StatusInternalServerError)
		return
	}
	prop := fleet.ProportionalSplit(demands, budget)
	uni := fleet.UniformSplit(demands, budget)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"waterfill": plan,
		"baselines": map[string]any{
			"proportional": prop,
			"uniform":      uni,
		},
	})
}

// handleMetrics renders the server and fleet metrics unlabeled, then
// every tenant's set labeled tenant="id". HELP/TYPE headers are
// deduplicated across tenants so the document stays valid.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.set.WritePrometheus(w); err != nil {
		log.Printf("krrserve: metrics write: %v", err)
		return
	}
	infos := s.reg.List()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	seen := make(map[string]bool)
	for _, info := range infos {
		ten, ok := s.reg.Get(info.ID)
		if !ok {
			continue
		}
		labels := fmt.Sprintf("tenant=%q", telemetry.EscapeLabelValue(info.ID))
		if err := ten.Set().WritePrometheusLabeled(w, labels, seen); err != nil {
			log.Printf("krrserve: metrics write: %v", err)
			return
		}
	}
}

// writeFinal finalizes ingest and writes the default tenant's finished
// curve JSON to path ("" or "-" = stdout). By the snapshot contract
// this equals the last snapshot bit-for-bit if no requests arrived in
// between.
func (s *server) writeFinal(path string) error {
	s.final.Store(true)
	c := &mrc.Curve{Sizes: []uint64{0}, Miss: []float64{1}, Interp: mrc.InterpStep}
	if snap, err := s.reg.Snapshot(defaultTenant); err == nil && snap.Object != nil {
		c = snap.Object
	}
	out := os.Stdout
	if path != "" && path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return c.WriteJSON(out)
}
