package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"krr/internal/fleet"
	"krr/internal/model"
	"krr/internal/trace"
	"krr/internal/wire"
)

// ndjsonKeys renders n NDJSON lines over keys 0..mod-1.
func ndjsonKeys(n, mod int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "{\"key\": %d}\n", i%mod)
	}
	return b.String()
}

// TestFailureStalledHTTPBody pins that an HTTP ingest body is never
// read under the tenant lock. While a POST to tenant a has sent one
// line of a 100 kB body and stalls, a curve read of a, a wire frame
// into a and a fleet-wide /allocate each complete within a second.
func TestFailureStalledHTTPBody(t *testing.T) {
	s, err := newServer(fleet.Config{Default: fleet.Spec{Model: "krr", Options: model.Options{K: 4, Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	// The handler marks the stalled POST's body so the test knows the
	// server is reading it.
	bodyRead := make(chan struct{})
	var once sync.Once
	routes := s.routes()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Stall") != "" {
			r.Body = notifyReader{r.Body, func() { once.Do(func() { close(bodyRead) }) }}
		}
		routes.ServeHTTP(w, r)
	}))
	defer ts.Close()
	_, wireAddr := startWireTest(t, s)

	if resp := post(t, ts.URL+"/tenants/a/ingest", "application/x-ndjson", ndjsonKeys(3000, 200)); resp.StatusCode != http.StatusOK {
		t.Fatalf("preload status %d", resp.StatusCode)
	}
	wc, err := wire.Dial(wireAddr, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/tenants/a/ingest", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = 100_000
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("X-Stall", "1")
	posted := make(chan struct{})
	go func() {
		defer close(posted)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	// Runs before the deferred closes above: releasing the body is what
	// lets them return if the tenant lock is held across it.
	defer func() {
		pw.CloseWithError(io.ErrUnexpectedEOF)
		<-posted
	}()
	if _, err := pw.Write([]byte("{\"key\": 1}\n")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-bodyRead:
	case <-time.After(5 * time.Second):
		t.Fatal("server never read the stalled body")
	}

	client := &http.Client{Timeout: time.Second}
	for _, path := range []string{"/tenants/a/mrc?size=50", "/allocate?budget=100"} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Errorf("GET %s while a body stalls: %v", path, err)
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s status %d", path, resp.StatusCode)
		}
	}

	const frame = 100
	before := s.ingests.Load()
	if err := wc.SendBatch(make([]trace.Request, frame)); err != nil {
		t.Fatal(err)
	}
	if err := wc.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for s.ingests.Load() < before+frame {
		if time.Now().After(deadline) {
			t.Error("wire frame into a not ingested within 1s while a body stalls")
			break
		}
		time.Sleep(time.Millisecond)
	}
}

// notifyReader calls read before every Read of the wrapped body.
type notifyReader struct {
	io.ReadCloser
	read func()
}

func (n notifyReader) Read(p []byte) (int, error) {
	n.read()
	return n.ReadCloser.Read(p)
}

// TestFailureTenantEvictedWithQueuedFrames pins what happens to wire
// frames still queued for a tenant that is evicted: they land in a
// fresh tenant built from the default spec, and the re-creation is
// counted by fleet_tenants_created_total. Nothing is lost or rejected.
func TestFailureTenantEvictedWithQueuedFrames(t *testing.T) {
	const frames, perFrame = 6, 100
	s, ts := testServer(t, model.Options{K: 4, Seed: 1})
	if resp := post(t, ts.URL+"/tenants", "application/json", `{"id": "a", "model": "krr-bucket"}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}

	// Frame 1 reaches the original tenant; frame 2 waits at the gate
	// while frames 3-6 queue behind it.
	entered, gate := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	sink := fleetSink{s: s}
	wsrv, err := wire.NewServer(wire.Config{Sink: wire.SinkFunc(func(tenant string, reqs []trace.Request) error {
		if calls.Add(1) == 2 {
			close(entered)
			<-gate
		}
		return sink.IngestBatch(tenant, reqs)
	})})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go wsrv.Serve(ln)
	defer wsrv.Close()

	c, err := wire.Dial(ln.Addr().String(), "a")
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]trace.Request, perFrame)
	for i := range reqs {
		reqs[i] = trace.Request{Key: uint64(i), Size: 1, Op: trace.OpGet}
	}
	for i := 0; i < frames; i++ {
		if err := c.SendBatch(reqs); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("second frame never reached the sink")
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().AckedFrames < frames {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("acks stalled: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	if resp := del(t, ts.URL+"/tenants/a"); resp.StatusCode != http.StatusNoContent {
		close(gate)
		t.Fatalf("evict status %d", resp.StatusCode)
	}
	close(gate)
	st, err := c.Close()
	if err != nil {
		t.Fatalf("Close after eviction: %v (stats %+v)", err, st)
	}
	wsrv.Close()

	var listing struct {
		Tenants []fleet.TenantInfo `json:"tenants"`
	}
	if err := json.NewDecoder(get(t, ts.URL+"/tenants").Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Tenants) != 1 || listing.Tenants[0].ID != "a" || listing.Tenants[0].Model != "krr" {
		t.Fatalf("tenants after eviction = %+v, want one default-spec (krr) tenant a", listing.Tenants)
	}
	if got, want := listing.Tenants[0].Requests, uint64((frames-1)*perFrame); got != want {
		t.Fatalf("fresh tenant ingested %d requests, want %d (frames 2-%d)", got, want, frames)
	}
	metrics := string(body(t, ts.URL+"/metrics"))
	for _, want := range []string{
		"fleet_tenants_created_total 2\n",
		"fleet_evictions_manual_total 1\n",
		fmt.Sprintf("krrserve_ingest_requests_total %d\n", frames*perFrame),
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}
