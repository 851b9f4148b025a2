// krrserve is the fleet-advisor daemon: a registry of shadow MRC
// models (one per tenant) behind an HTTP API. Production traffic from
// many caches is mirrored in — NDJSON or the binary trace format over
// POST, routed by tenant id — and operators read live miss-ratio
// curves, fleet-wide memory accounting, and a partitioning plan that
// waterfills a shared cache budget across tenants by marginal
// miss-ratio gain.
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
//	                              model spec; reads of them 404.
//	GET    /tenants/{id}/mrc?size=N     miss ratio at one cache size,
//	                              from a live snapshot; &unit=bytes
//	                              evaluates the byte curve.
//	GET    /tenants/{id}/curve    the full curve as JSON; ?points=N
//	                              downsamples, &unit=bytes selects the
//	                              byte curve.
//	GET    /tenants/{id}/stats    stream counters (seen, sampled),
//	                              cached footprint and uptime.
//	GET    /allocate?budget=N     waterfill partitioning of budget
//	                              across all live tenants, with
//	                              proportional-by-traffic and uniform
//	                              baselines; &unit=bytes partitions a
//	                              byte budget (requires byte-mode
//	                              models).
//
// Process-wide:
//
//	GET  /metrics    Prometheus text exposition, the only one: server
//	                 and fleet metrics unlabeled (the Go runtime's GC
//	                 cycles, live heap and heap goal among them as
//	                 krrserve_go_*), per-tenant metrics labeled
//	                 tenant="id".
//	GET  /debug/pprof/  profiling handlers.
//	GET  /healthz    liveness probe.
//
// With -tcp the daemon also serves the binary wire ingest plane
// (internal/wire). Both front ends feed fleet.Registry.IngestBatch, and
// both decode on one goroutine while another ingests: the wire plane's
// connection reader and worker, and for HTTP bodies the decoder
// goroutine of fleet.Registry.Ingest.
//
// NDJSON bodies are read by a trace.BatchReader (ndjson.go) that parses
// each line straight into the 4096-request ingest batch. Canonical
// lines take an allocation-free parser that hashes string keys as it
// checks them; any other line is decoded by encoding/json, whose
// requests and error messages the route reports. Lines are split as
// bufio.Scanner splits them, up to 1 MiB per line, from a pooled 64 KiB
// buffer.
//
// On SIGTERM/SIGINT the server stops accepting requests, drains the
// wire plane, and writes the "default" tenant's final curve as JSON to
// -final (or stdout).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
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

// defaultTenant is the tenant whose curve -final writes on shutdown.
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
	_ = probe.Close() // sharded probes hold worker goroutines; Close never fails
	s := &server{
		reg:   fleet.NewRegistry(cfg),
		start: time.Now(),
		set:   telemetry.NewSet(),
	}
	s.set.CounterFunc("krrserve_ingest_requests_total", "trace requests ingested over HTTP and wire", s.ingests.Load)
	s.set.CounterFunc("krrserve_ingest_errors_total", "ingest bodies rejected", s.ingestErrs.Load)
	s.set.CounterFunc("krrserve_snapshots_total", "live curve snapshots served", s.snapshots.Load)
	s.set.GaugeFunc("krrserve_uptime_seconds", "seconds since process start", func() float64 {
		return time.Since(s.start).Seconds()
	})
	s.set.CounterFunc("krrserve_go_gc_cycles_total", "completed garbage collection cycles", runtimeMetric("/gc/cycles/total:gc-cycles"))
	s.set.GaugeFunc("krrserve_go_heap_live_bytes", "heap bytes marked live by the last garbage collection", floatOf(runtimeMetric("/gc/heap/live:bytes")))
	s.set.GaugeFunc("krrserve_go_heap_goal_bytes", "heap size at which the next garbage collection starts", floatOf(runtimeMetric("/gc/heap/goal:bytes")))
	s.reg.MetricsInto(s.set, "fleet_")
	return s, nil
}

// runtimeMetric reads one uint64 runtime/metrics value. The sample is
// reused under a lock, so a read allocates nothing, and unlike
// runtime.ReadMemStats it does not stop the world.
func runtimeMetric(name string) func() uint64 {
	var mu sync.Mutex
	sample := []metrics.Sample{{Name: name}}
	return func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
}

func floatOf(read func() uint64) func() float64 {
	return func() float64 { return float64(read()) }
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
	// Process-wide.
	mux.HandleFunc("GET /metrics", s.handleMetrics)
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
// NDJSON goes through the batch reader in ndjson.go, whose pooled
// buffer the caller releases once fleet.Registry.Ingest returns.
func bodyReader(r *http.Request) (trace.Reader, error) {
	if r.Header.Get("Content-Type") == "application/octet-stream" {
		return trace.NewBinaryReader(r.Body)
	}
	return newNDJSONReader(r.Body), nil
}

// errFinalized rejects ingest after shutdown began.
var errFinalized = errors.New("server is finalized")

// ingest is the server-side step both front ends share: it refuses
// input once the server is finalized, runs feed, and counts the
// requests feed ingested and any failure.
func (s *server) ingest(feed func() (uint64, error)) (uint64, error) {
	if s.final.Load() {
		return 0, errFinalized
	}
	n, err := feed()
	s.ingests.Add(n)
	if err != nil {
		s.ingestErrs.Inc()
	}
	return n, err
}

func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	reader, badBody := bodyReader(r)
	if nr, ok := reader.(*ndjsonReader); ok {
		defer nr.release()
	}
	count, err := s.ingest(func() (uint64, error) {
		if badBody != nil {
			return 0, badBody
		}
		return s.reg.Ingest(r.PathValue("id"), reader)
	})
	switch {
	case errors.Is(err, errFinalized):
		http.Error(w, err.Error(), http.StatusConflict)
	case badBody != nil:
		http.Error(w, fmt.Sprintf("bad binary trace: %v", err), http.StatusBadRequest)
	case err != nil:
		http.Error(w, fmt.Sprintf("ingest stopped after %d requests: %v", count, err),
			http.StatusBadRequest)
	default:
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"ingested\": %d}\n", count)
	}
}

// read takes a tenant's live curve in the requested unit, serving 404
// for unknown ids and 400 for a bad unit. The caller releases the
// read.
func (s *server) read(w http.ResponseWriter, r *http.Request) (fleet.CurveRead, bool) {
	var bytes bool
	switch unit := r.URL.Query().Get("unit"); unit {
	case "", "objects":
	case "bytes":
		bytes = true
	default:
		http.Error(w, fmt.Sprintf("unknown unit %q (want objects or bytes)", unit), http.StatusBadRequest)
		return fleet.CurveRead{}, false
	}
	rd, err := s.reg.Read(r.PathValue("id"), bytes)
	switch {
	case errors.Is(err, fleet.ErrNoByteCurve):
		http.Error(w, "model was built without a byte mode (-bytes off)", http.StatusBadRequest)
		return fleet.CurveRead{}, false
	case err != nil:
		http.Error(w, err.Error(), http.StatusNotFound)
		return fleet.CurveRead{}, false
	}
	s.snapshots.Inc()
	return rd, true
}

func (s *server) handleMRC(w http.ResponseWriter, r *http.Request) {
	sizeStr := r.URL.Query().Get("size")
	size, err := strconv.ParseUint(sizeStr, 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad size %q: %v", sizeStr, err), http.StatusBadRequest)
		return
	}
	rd, ok := s.read(w, r)
	if !ok {
		return
	}
	miss := rd.Eval(size)
	rd.Release()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"size\": %d, \"miss_ratio\": %g, \"requests\": %d}\n",
		size, miss, rd.Stats.Seen)
}

func (s *server) handleCurve(w http.ResponseWriter, r *http.Request) {
	rd, ok := s.read(w, r)
	if !ok {
		return
	}
	defer rd.Release()
	var n int
	if pts := r.URL.Query().Get("points"); pts != "" {
		var err error
		if n, err = strconv.Atoi(pts); err != nil || n < 2 {
			http.Error(w, fmt.Sprintf("bad points %q", pts), http.StatusBadRequest)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := rd.WriteJSON(w, n); err != nil {
		log.Printf("krrserve: curve write: %v", err)
	}
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
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
	// One read of every tenant feeds the plan and both baselines, so
	// they compare the same curves.
	demands, err := s.reg.Demands(unit)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	plan := s.reg.Waterfill(demands, budget, unit)
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

// writeFinal refuses further ingest and writes a snapshot of the
// default tenant's object curve as JSON to path ("" or "-" = stdout).
// It runs after both front ends have drained, so the curve covers every
// request they ingested; it equals the last snapshot served bit for bit
// if no request arrived in between.
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
