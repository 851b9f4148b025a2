package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"krr/internal/fleet"
	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
)

func testServer(t *testing.T, opts model.Options) (*server, *httptest.Server) {
	t.Helper()
	return testServerCfg(t, fleet.Config{Default: fleet.Spec{Model: "krr", Options: opts}})
}

func testServerCfg(t *testing.T, cfg fleet.Config) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url, contentType, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func del(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestIngestNDJSONAndMRC(t *testing.T) {
	_, ts := testServer(t, model.Options{K: 4, Seed: 1})

	var b strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&b, "{\"key\": %d}\n", i%97)
	}
	b.WriteString("{\"key\": \"user:42\", \"size\": 512, \"op\": \"set\"}\n")
	resp := post(t, ts.URL+"/tenants/default/ingest", "application/x-ndjson", b.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	var ing struct {
		Ingested int `json:"ingested"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	if ing.Ingested != 2001 {
		t.Fatalf("ingested %d, want 2001", ing.Ingested)
	}

	resp = get(t, ts.URL+"/tenants/default/mrc?size=50")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/mrc status %d", resp.StatusCode)
	}
	var point struct {
		Size      uint64  `json:"size"`
		MissRatio float64 `json:"miss_ratio"`
		Requests  uint64  `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&point); err != nil {
		t.Fatal(err)
	}
	if point.Requests != 2001 {
		t.Fatalf("requests %d, want 2001", point.Requests)
	}
	if point.MissRatio < 0 || point.MissRatio > 1 {
		t.Fatalf("miss ratio %v out of range", point.MissRatio)
	}

	// A snapshot leaves the tenant live: a second ingest still succeeds.
	resp = post(t, ts.URL+"/tenants/default/ingest", "application/x-ndjson", "{\"key\": 1}\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-snapshot ingest status %d", resp.StatusCode)
	}
}

func TestIngestBinary(t *testing.T) {
	_, ts := testServer(t, model.Options{K: 4, Seed: 1})

	gen := workload.NewZipf(3, 500, 0.9, workload.FixedSize(trace.DefaultObjectSize), 0.1)
	tr, err := trace.Collect(gen, 5000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	resp := post(t, ts.URL+"/tenants/default/ingest", "application/octet-stream", buf.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary ingest status %d", resp.StatusCode)
	}

	resp = get(t, ts.URL+"/tenants/default/curve?points=16")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/curve status %d", resp.StatusCode)
	}
	c, err := mrc.ReadJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() < 2 || c.Eval(0) != 1 {
		t.Fatalf("malformed live curve: %d points", c.Len())
	}
}

func TestIngestRejectsGarbage(t *testing.T) {
	s, ts := testServer(t, model.Options{K: 4, Seed: 1})
	for _, body := range []string{
		"{\"key\": 1}\nnot json\n",
		"{\"size\": 8}\n",                   // missing key
		"{\"key\": 1, \"op\": \"frobn\"}\n", // unknown op
	} {
		resp := post(t, ts.URL+"/tenants/default/ingest", "application/x-ndjson", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp := post(t, ts.URL+"/tenants/default/ingest", "application/octet-stream", "XXXXnot a trace")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad magic: status %d, want 400", resp.StatusCode)
	}
	if s.ingestErrs.Load() != 4 {
		t.Fatalf("ingest error counter = %d, want 4", s.ingestErrs.Load())
	}
}

func TestByteUnitWithoutByteMode(t *testing.T) {
	_, ts := testServer(t, model.Options{K: 4, Seed: 1}) // bytes off
	post(t, ts.URL+"/tenants/default/ingest", "application/x-ndjson", "{\"key\": 1}\n")
	resp := get(t, ts.URL+"/tenants/default/mrc?size=100&unit=bytes")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("byte query on bytes-off model: status %d, want 400", resp.StatusCode)
	}
}

func TestByteUnitCurve(t *testing.T) {
	_, ts := testServer(t, model.Options{K: 4, Seed: 1, Bytes: model.BytesOn})
	var b strings.Builder
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&b, "{\"key\": %d, \"size\": %d}\n", i%200, 100+(i%7)*300)
	}
	post(t, ts.URL+"/tenants/default/ingest", "application/x-ndjson", b.String())
	resp := get(t, ts.URL+"/tenants/default/curve?unit=bytes")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/curve unit=bytes status %d", resp.StatusCode)
	}
	c, err := mrc.ReadJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() < 2 {
		t.Fatalf("degenerate byte curve: %d points", c.Len())
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := testServer(t, model.Options{K: 4, Seed: 1})
	post(t, ts.URL+"/tenants/default/ingest", "application/x-ndjson", "{\"key\": 1}\n{\"key\": 2}\n")
	resp := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	for _, want := range []string{
		"krrserve_ingest_requests_total 2",
		"krr_model_requests_seen_total{tenant=\"default\"} 2",
		"krr_model_stack_len{tenant=\"default\"}",
		"tenant_requests_total{tenant=\"default\"} 2",
		"fleet_tenants 1",
		"fleet_footprint_bytes",
		"# TYPE krrserve_uptime_seconds gauge",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestMetricsRuntimeGC pins the Go runtime's memory metrics: every
// scrape exposes the GC cycle count, live heap and heap goal, and the
// cycle counter rises across a forced collection.
func TestMetricsRuntimeGC(t *testing.T) {
	_, ts := testServer(t, model.Options{K: 4, Seed: 1})
	scrape := func() string {
		var buf bytes.Buffer
		buf.ReadFrom(get(t, ts.URL+"/metrics").Body)
		return buf.String()
	}
	before := scrape()
	for _, want := range []string{
		"# TYPE krrserve_go_gc_cycles_total counter",
		"# TYPE krrserve_go_heap_live_bytes gauge",
		"# TYPE krrserve_go_heap_goal_bytes gauge",
	} {
		if !strings.Contains(before, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, before)
		}
	}
	runtime.GC()
	after := scrape()
	if c0, c1 := metricValue(t, before, "krrserve_go_gc_cycles_total"), metricValue(t, after, "krrserve_go_gc_cycles_total"); c1 <= c0 {
		t.Fatalf("krrserve_go_gc_cycles_total %d -> %d across runtime.GC, want a rise", c0, c1)
	}
	if live, goal := metricValue(t, after, "krrserve_go_heap_live_bytes"), metricValue(t, after, "krrserve_go_heap_goal_bytes"); live == 0 || goal < live {
		t.Fatalf("heap live %d goal %d, want 0 < live <= goal", live, goal)
	}
}

// TestIngestRejectedPostLeavesNoResidue pins that a recycled NDJSON
// buffer carries nothing from its last body: a POST rejected at line 3
// ingests its first two lines, and the good POST after it, decoded on
// the recycled buffer, ingests exactly its own lines.
func TestIngestRejectedPostLeavesNoResidue(t *testing.T) {
	// One P, so the second POST's pool Get returns the first's buffer.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, ts := testServer(t, model.Options{K: 4, Seed: 1})
	bad := "{\"key\": 1}\n{\"key\": 2}\n{\"key\": oops}\n" + ndjsonKeys(500, 50)
	if resp := post(t, ts.URL+"/tenants/r/ingest", "application/x-ndjson", bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status %d, want 400", resp.StatusCode)
	}
	const good = 300
	resp := post(t, ts.URL+"/tenants/r/ingest", "application/x-ndjson", ndjsonKeys(good, 70))
	var out struct{ Ingested uint64 }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.Ingested != good {
		t.Fatalf("good body: status %d ingested %d (err %v), want %d", resp.StatusCode, out.Ingested, err, good)
	}
	var buf bytes.Buffer
	buf.ReadFrom(get(t, ts.URL+"/metrics").Body)
	if n := metricValue(t, buf.String(), `tenant_requests_total{tenant="r"}`); n != 2+good {
		t.Fatalf("tenant_requests_total = %d, want %d", n, 2+good)
	}
}

// TestMetricsLabelsPerTenant checks that tenant metric families appear
// once per tenant, with HELP/TYPE headers deduplicated across tenants.
func TestMetricsLabelsPerTenant(t *testing.T) {
	_, ts := testServer(t, model.Options{K: 4, Seed: 1})
	post(t, ts.URL+"/tenants/a/ingest", "application/x-ndjson", "{\"key\": 1}\n")
	post(t, ts.URL+"/tenants/b/ingest", "application/x-ndjson", "{\"key\": 1}\n{\"key\": 2}\n")
	var buf bytes.Buffer
	buf.ReadFrom(get(t, ts.URL+"/metrics").Body)
	body := buf.String()
	for _, want := range []string{
		"tenant_requests_total{tenant=\"a\"} 1",
		"tenant_requests_total{tenant=\"b\"} 2",
		"fleet_tenants 2",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
	if n := strings.Count(body, "# TYPE tenant_requests_total"); n != 1 {
		t.Fatalf("TYPE header for tenant_requests_total appears %d times, want 1:\n%s", n, body)
	}
}

func TestShardedServer(t *testing.T) {
	_, ts := testServer(t, model.Options{K: 4, Seed: 1, Workers: 3})
	var b strings.Builder
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&b, "{\"key\": %d}\n", i%300)
	}
	post(t, ts.URL+"/tenants/default/ingest", "application/x-ndjson", b.String())
	resp := get(t, ts.URL+"/tenants/default/curve")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/curve status %d", resp.StatusCode)
	}
	c, err := mrc.ReadJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() < 2 {
		t.Fatal("degenerate sharded live curve")
	}
	resp = get(t, ts.URL+"/metrics")
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "krr_model_pipe_batches_total") {
		t.Fatal("/metrics missing shard pipe telemetry")
	}
}

func TestStatsAndHealth(t *testing.T) {
	_, ts := testServer(t, model.Options{K: 4, Seed: 1})
	post(t, ts.URL+"/tenants/default/ingest", "application/x-ndjson", "{\"key\": 9}\n")
	resp := get(t, ts.URL+"/tenants/default/stats")
	var st struct {
		Seen      uint64 `json:"seen"`
		Footprint int64  `json:"footprint_bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Seen != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Footprint <= 0 {
		t.Fatalf("footprint %d, want > 0", st.Footprint)
	}
	if resp := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
}

func TestFinalCurveMatchesLastSnapshot(t *testing.T) {
	s, ts := testServer(t, model.Options{K: 4, Seed: 1})
	var b strings.Builder
	for i := 0; i < 2500; i++ {
		fmt.Fprintf(&b, "{\"key\": %d}\n", i%150)
	}
	post(t, ts.URL+"/tenants/default/ingest", "application/x-ndjson", b.String())

	resp := get(t, ts.URL+"/tenants/default/curve")
	live, err := mrc.ReadJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	finalPath := filepath.Join(t.TempDir(), "final.json")
	if err := s.writeFinal(finalPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(finalPath)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := mrc.ReadJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if live.Len() != fin.Len() {
		t.Fatalf("live curve %d points, final %d", live.Len(), fin.Len())
	}
	for i := range fin.Sizes {
		if live.Sizes[i] != fin.Sizes[i] || live.Miss[i] != fin.Miss[i] {
			t.Fatalf("live and final curves diverge at point %d", i)
		}
	}

	// Ingest after finalization is refused, not crashed — on every
	// tenant, not just the default.
	resp = post(t, ts.URL+"/tenants/default/ingest", "application/x-ndjson", "{\"key\": 1}\n")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("post-final ingest status %d, want 409", resp.StatusCode)
	}
	resp = post(t, ts.URL+"/tenants/other/ingest", "application/x-ndjson", "{\"key\": 1}\n")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("post-final tenant ingest status %d, want 409", resp.StatusCode)
	}
}

func TestTenantLifecycle(t *testing.T) {
	_, ts := testServer(t, model.Options{K: 4, Seed: 1})

	// Explicit create with a non-default model spec.
	resp := post(t, ts.URL+"/tenants", "application/json",
		`{"id": "t1", "model": "krr-bucket", "k": 5, "seed": 7}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	// Duplicate id conflicts.
	resp = post(t, ts.URL+"/tenants", "application/json", `{"id": "t1"}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create status %d, want 409", resp.StatusCode)
	}
	// Bad specs are rejected.
	for _, body := range []string{
		`{"model": "krr"}`,                   // missing id
		`{"id": "x", "model": "nope"}`,       // unknown model
		`{"id": "x", "bytes": "frobnicate"}`, // unknown byte mode
		`not json`,
	} {
		resp = post(t, ts.URL+"/tenants", "application/json", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	// Ingest into the created tenant, auto-create another.
	var b strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "{\"key\": %d}\n", i%80)
	}
	if resp := post(t, ts.URL+"/tenants/t1/ingest", "application/x-ndjson", b.String()); resp.StatusCode != http.StatusOK {
		t.Fatalf("t1 ingest status %d", resp.StatusCode)
	}
	if resp := post(t, ts.URL+"/tenants/t2/ingest", "application/x-ndjson", b.String()); resp.StatusCode != http.StatusOK {
		t.Fatalf("t2 ingest status %d", resp.StatusCode)
	}

	// List shows both with footprints.
	var listing struct {
		Tenants   []fleet.TenantInfo `json:"tenants"`
		Footprint int64              `json:"footprint_bytes"`
	}
	if err := json.NewDecoder(get(t, ts.URL+"/tenants").Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Tenants) != 2 {
		t.Fatalf("listed %d tenants, want 2", len(listing.Tenants))
	}
	if listing.Tenants[0].ID != "t1" || listing.Tenants[0].Model != "krr-bucket" {
		t.Fatalf("tenant rows wrong: %+v", listing.Tenants)
	}
	if listing.Footprint <= 0 {
		t.Fatalf("fleet footprint %d, want > 0", listing.Footprint)
	}

	// Tenant-scoped curve and mrc.
	resp = get(t, ts.URL+"/tenants/t1/mrc?size=40")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("t1 /mrc status %d", resp.StatusCode)
	}
	c, err := mrc.ReadJSON(get(t, ts.URL+"/tenants/t2/curve").Body)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() < 2 || c.Eval(0) != 1 {
		t.Fatal("t2 curve malformed")
	}
	// Unknown tenants 404 on reads instead of auto-creating, the
	// default tenant included; the single-tenant aliases and the expvar
	// mirror are gone.
	for _, path := range []string{"/tenants/ghost/curve", "/tenants/default/stats", "/mrc?size=1", "/curve", "/stats", "/debug/vars"} {
		if resp := get(t, ts.URL+path); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s status %d, want 404", path, resp.StatusCode)
		}
	}
	if resp := post(t, ts.URL+"/ingest", "application/x-ndjson", "{\"key\": 1}\n"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /ingest status %d, want 404", resp.StatusCode)
	}

	// Delete removes exactly once.
	if resp := del(t, ts.URL+"/tenants/t1"); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if resp := del(t, ts.URL+"/tenants/t1"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete status %d, want 404", resp.StatusCode)
	}
}

// TestFleetSmoke is the check.sh fleet-smoke stage: three tenants with
// distinct workload shapes, one shared budget, and the /allocate plan
// must be budget-feasible, monotone in budget, and deterministic.
func TestFleetSmoke(t *testing.T) {
	_, ts := testServer(t, model.Options{K: 4, Seed: 1})

	ndjson := func(r trace.Reader, n int) string {
		var b strings.Builder
		lim := trace.LimitReader(r, n)
		for {
			req, err := lim.Next()
			if err != nil {
				break
			}
			fmt.Fprintf(&b, "{\"key\": %d}\n", req.Key)
		}
		return b.String()
	}
	hot := workload.NewZipf(1, 300, 0.9, nil, 0)
	broad := workload.NewUniform(2, 5000, nil)
	broad.SetKeySpace(1 << 40)
	loop := workload.NewLoop(800, nil)
	loop.SetKeySpace(2 << 40)
	for id, body := range map[string]string{
		"hot":   ndjson(hot, 20000),
		"broad": ndjson(broad, 20000),
		"loop":  ndjson(loop, 20000),
	} {
		resp := post(t, ts.URL+"/tenants/"+id+"/ingest", "application/x-ndjson", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s ingest status %d", id, resp.StatusCode)
		}
	}

	type allocResp struct {
		Waterfill fleet.Plan `json:"waterfill"`
		Baselines struct {
			Proportional fleet.Plan `json:"proportional"`
			Uniform      fleet.Plan `json:"uniform"`
		} `json:"baselines"`
	}
	fetch := func(budget int) allocResp {
		t.Helper()
		resp := get(t, fmt.Sprintf("%s/allocate?budget=%d", ts.URL, budget))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/allocate status %d", resp.StatusCode)
		}
		var out allocResp
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	a := fetch(3000)
	if err := a.Waterfill.Feasible(); err != nil {
		t.Fatalf("waterfill plan infeasible: %v", err)
	}
	if len(a.Waterfill.Allocations) != 3 {
		t.Fatalf("allocations = %d, want 3", len(a.Waterfill.Allocations))
	}
	if a.Waterfill.AggregateMiss > a.Baselines.Proportional.AggregateMiss+1e-12 {
		t.Fatalf("waterfill %v worse than proportional %v",
			a.Waterfill.AggregateMiss, a.Baselines.Proportional.AggregateMiss)
	}
	if a.Waterfill.AggregateMiss > a.Baselines.Uniform.AggregateMiss+1e-12 {
		t.Fatalf("waterfill %v worse than uniform %v",
			a.Waterfill.AggregateMiss, a.Baselines.Uniform.AggregateMiss)
	}

	// Monotone: more budget never predicts more aggregate misses.
	last := 2.0
	for _, budget := range []int{500, 1000, 2000, 4000} {
		p := fetch(budget).Waterfill
		if err := p.Feasible(); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if p.AggregateMiss > last+1e-12 {
			t.Fatalf("aggregate miss rose with budget at %d: %v after %v", budget, p.AggregateMiss, last)
		}
		last = p.AggregateMiss
	}

	// Deterministic for a fixed trace set.
	if b := fetch(3000); !reflect.DeepEqual(a, b) {
		t.Fatalf("allocation not deterministic:\n%+v\n%+v", a, b)
	}

	// Bad queries are rejected.
	for _, q := range []string{"/allocate", "/allocate?budget=0", "/allocate?budget=x", "/allocate?budget=10&unit=parsecs"} {
		if resp := get(t, ts.URL+q); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s status %d, want 400", q, resp.StatusCode)
		}
	}
	// Byte budgets need byte-capable models.
	if resp := get(t, ts.URL+"/allocate?budget=1000000&unit=bytes"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bytes allocate on object-only models: status %d, want 400", resp.StatusCode)
	}
}
