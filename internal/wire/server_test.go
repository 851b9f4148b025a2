package wire

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"krr/internal/telemetry"
	"krr/internal/trace"
)

// collectSink records every ingested request per tenant.
type collectSink struct {
	mu   sync.Mutex
	got  map[string][]trace.Request
	errs error
}

func (cs *collectSink) IngestBatch(tenant string, reqs []trace.Request) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.got == nil {
		cs.got = make(map[string][]trace.Request)
	}
	cs.got[tenant] = append(cs.got[tenant], reqs...)
	return cs.errs
}

func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// TestServerEndToEnd pins the full loop: client frames in, sink batches
// out, every request intact and in order, zero drops when the sink
// keeps up.
func TestServerEndToEnd(t *testing.T) {
	sink := &collectSink{}
	srv, addr := startServer(t, Config{Sink: sink})

	c, err := Dial(addr, "acme")
	if err != nil {
		t.Fatal(err)
	}
	c.Latency = telemetry.NewHistogram(telemetry.ExpBuckets(1e-6, 2, 21))
	want := testReqs(10_000)
	for off := 0; off < len(want); off += 777 {
		end := off + 777
		if end > len(want) {
			end = len(want)
		}
		if err := c.SendBatch(want[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != uint64(len(want)) || st.AckedRequests != uint64(len(want)) {
		t.Fatalf("stats: sent %d acked %d, want %d", st.Requests, st.AckedRequests, len(want))
	}
	if st.DroppedFrames != 0 || st.DroppedRequests != 0 {
		t.Fatalf("unexpected drops: %+v", st)
	}
	// The server has acked every frame, but the last sink call may still
	// be in flight; Close drains the workers.
	srv.Close()
	sink.mu.Lock()
	got := sink.got["acme"]
	sink.mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("sink saw %d requests, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("request %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if srv.Requests() != uint64(len(want)) || srv.Dropped() != 0 {
		t.Fatalf("server counters: requests %d dropped %d", srv.Requests(), srv.Dropped())
	}
	if c.Latency.Count() == 0 {
		t.Fatal("no ack latency samples recorded")
	}
}

// TestServerMultiTenant pins per-connection tenant routing.
func TestServerMultiTenant(t *testing.T) {
	sink := &collectSink{}
	srv, addr := startServer(t, Config{Sink: sink})

	var wg sync.WaitGroup
	for _, tenant := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			c, err := Dial(addr, tenant)
			if err != nil {
				t.Error(err)
				return
			}
			if err := c.SendBatch(testReqs(500)); err != nil {
				t.Error(err)
				return
			}
			if _, err := c.Close(); err != nil {
				t.Error(err)
			}
		}(tenant)
	}
	wg.Wait()
	srv.Close()
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, tenant := range []string{"a", "b", "c"} {
		if len(sink.got[tenant]) != 500 {
			t.Fatalf("tenant %q: %d requests, want 500", tenant, len(sink.got[tenant]))
		}
	}
}

// TestServerOverload pins deterministic shedding: a sink stalled behind
// a gate while a client pours in 10x more frames than the queue holds
// must produce counted drops on both sides, bounded queue occupancy,
// and exact conservation (accepted + dropped == sent).
func TestServerOverload(t *testing.T) {
	gate := make(chan struct{})
	var inflight, maxInflight atomic.Int64
	sink := SinkFunc(func(tenant string, reqs []trace.Request) error {
		cur := inflight.Add(1)
		for {
			max := maxInflight.Load()
			if cur <= max || maxInflight.CompareAndSwap(max, cur) {
				break
			}
		}
		<-gate
		inflight.Add(-1)
		return nil
	})
	const depth = 4
	srv, addr := startServer(t, Config{Sink: sink, QueueDepth: depth})

	c, err := Dial(addr, "flood")
	if err != nil {
		t.Fatal(err)
	}
	// 10x oversubscription: far more frames than the queue + worker can
	// hold while the sink is gated shut.
	const frames = 10 * (depth + 1)
	const perFrame = 256
	reqs := testReqs(perFrame)
	for i := 0; i < frames; i++ {
		if err := c.SendBatch(reqs); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the server has acked (accepted or shed) every frame, so
	// the drop accounting below is stable, then open the gate.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Stats()
		if st.AckedFrames+st.DroppedFrames == frames {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("acks stalled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()

	if st.DroppedFrames == 0 {
		t.Fatal("10x oversubscription produced no drops")
	}
	if st.AckedFrames+st.DroppedFrames != frames {
		t.Fatalf("conservation: acked %d + dropped %d != sent %d", st.AckedFrames, st.DroppedFrames, frames)
	}
	if st.AckedRequests+st.DroppedRequests != frames*perFrame {
		t.Fatalf("request conservation: %+v", st)
	}
	// Server-side accounting must agree with the client's ack stream.
	if srv.Dropped() != st.DroppedRequests {
		t.Fatalf("server dropped %d, client saw %d", srv.Dropped(), st.DroppedRequests)
	}
	if srv.Requests() != st.AckedRequests {
		t.Fatalf("server accepted %d, client saw %d", srv.Requests(), st.AckedRequests)
	}
	// Boundedness: at most one batch in the sink at a time (per-conn
	// worker is serial), so memory stays queue-capped no matter the
	// oversubscription factor.
	if maxInflight.Load() > 1 {
		t.Fatalf("sink saw %d concurrent batches from one connection", maxInflight.Load())
	}
}

// TestServerSinkError pins the failure path: after the sink errors, the
// server stops accepting frames on that connection and reports
// StatusBad instead of silently dropping.
func TestServerSinkError(t *testing.T) {
	var calls atomic.Int64
	sink := SinkFunc(func(tenant string, reqs []trace.Request) error {
		calls.Add(1)
		return trace.ErrBadFormat
	})
	srv, addr := startServer(t, Config{Sink: sink})

	c, err := Dial(addr, "t")
	if err != nil {
		t.Fatal(err)
	}
	// Keep sending until the error propagates back; the first frame is
	// always accepted (the sink hasn't run yet at admission time).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.SendBatch(testReqs(64)); err != nil {
			break
		}
		if err := c.Flush(); err != nil {
			break
		}
		if ep := c.ackErr.Load(); ep != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sink error never surfaced")
		}
		time.Sleep(time.Millisecond)
	}
	st, err := c.Close()
	if err == nil {
		t.Fatalf("Close returned no error after sink failure; stats %+v", st)
	}
	srv.Close()
	if calls.Load() == 0 {
		t.Fatal("sink never called")
	}
	if srv.sinkErrs.Load() == 0 {
		t.Fatal("sink errors not counted")
	}
}

// TestServerSinkErrorDuringDrain pins what an admission ack promises.
// All six frames are acked before the sink runs, and the sink fails on
// frame 3. Close must then return an error, and the frames left
// behind are counted as discarded: acked minus ingested.
func TestServerSinkErrorDuringDrain(t *testing.T) {
	const frames, perFrame, failAt = 6, 64, 3
	gate := make(chan struct{})
	var calls atomic.Int64
	sink := SinkFunc(func(tenant string, reqs []trace.Request) error {
		n := calls.Add(1)
		if n == 1 {
			<-gate
		}
		if n == failAt {
			return trace.ErrBadFormat
		}
		return nil
	})
	srv, addr := startServer(t, Config{Sink: sink})
	set := telemetry.NewSet()
	srv.MetricsInto(set, "wire_")

	c, err := Dial(addr, "t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if err := c.SendBatch(testReqs(perFrame)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().AckedFrames < frames {
		if time.Now().After(deadline) {
			t.Fatalf("acks stalled: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	st, err := c.Close()
	if err == nil {
		t.Fatalf("Close returned nil although the sink failed on frame %d of %d; stats %+v", failAt, frames, st)
	}
	srv.Close()
	if st.AckedFrames != frames {
		t.Fatalf("acked %d frames, want %d", st.AckedFrames, frames)
	}
	if calls.Load() != failAt {
		t.Fatalf("sink called %d times, want %d (no calls after the failure)", calls.Load(), failAt)
	}
	const ingested = failAt - 1
	var sb strings.Builder
	if err := set.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"wire_sink_errors_total 1\n",
		fmt.Sprintf("wire_sink_discarded_frames_total %d\n", frames-ingested),
		fmt.Sprintf("wire_sink_discarded_requests_total %d\n", (frames-ingested)*perFrame),
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, sb.String())
		}
	}
}

// TestFailureDisconnectMidFrame pins a client that disconnects halfway
// through a frame: the whole frames before it are ingested, the torn
// frame counts as one bad frame, and the connection is released.
func TestFailureDisconnectMidFrame(t *testing.T) {
	const perFrame = 100
	sink := &collectSink{}
	srv, addr := startServer(t, Config{Sink: sink})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteHeader(conn, "torn"); err != nil {
		t.Fatal(err)
	}
	frame := AppendFrame(nil, testReqs(perFrame))
	if _, err := conn.Write(append(append([]byte(nil), frame...), frame...)); err != nil {
		t.Fatal(err)
	}
	// Read both acks first, so the close below leaves no unread data
	// behind and the server sees a clean end of stream, not a reset.
	acks := make([]byte, 2)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, acks); err != nil || acks[0] != StatusOK || acks[1] != StatusOK {
		t.Fatalf("acks %v, err %v; want two StatusOK", acks, err)
	}
	if _, err := conn.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for srv.active.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("wire_connections_active stuck at %d", srv.active.Load())
		}
		time.Sleep(time.Millisecond)
	}
	sink.mu.Lock()
	got := len(sink.got["torn"])
	sink.mu.Unlock()
	if got != 2*perFrame {
		t.Fatalf("sink ingested %d requests, want %d", got, 2*perFrame)
	}
	if srv.frames.Load() != 2 || srv.badFrames.Load() != 1 {
		t.Fatalf("frames %d bad %d, want 2 and 1", srv.frames.Load(), srv.badFrames.Load())
	}
}

// TestFailureSlowTenant pins per-connection isolation: a sink blocked
// on one tenant's connection neither delays another connection's acks
// or ingest nor makes it shed frames.
func TestFailureSlowTenant(t *testing.T) {
	const frames, perFrame = 20, 100
	gate := make(chan struct{})
	collect := &collectSink{}
	sink := SinkFunc(func(tenant string, reqs []trace.Request) error {
		if tenant == "slow" {
			<-gate
		}
		return collect.IngestBatch(tenant, reqs)
	})
	_, addr := startServer(t, Config{Sink: sink})

	slow, err := Dial(addr, "slow")
	if err != nil {
		t.Fatal(err)
	}
	if err := slow.SendBatch(testReqs(perFrame)); err != nil {
		t.Fatal(err)
	}
	if err := slow.Flush(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(gate)
		if _, err := slow.Close(); err != nil {
			t.Errorf("slow connection: %v", err)
		}
	}()

	fast, err := Dial(addr, "fast")
	if err != nil {
		t.Fatal(err)
	}
	ingested := func() int {
		collect.mu.Lock()
		defer collect.mu.Unlock()
		return len(collect.got["fast"])
	}
	for i := 1; i <= frames; i++ {
		if err := fast.SendBatch(testReqs(perFrame)); err != nil {
			t.Fatal(err)
		}
		if err := fast.Flush(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(time.Second)
		for fast.Stats().AckedFrames < uint64(i) || ingested() < i*perFrame {
			if time.Now().After(deadline) {
				t.Fatalf("frame %d not acked and ingested within 1s while another tenant's sink is blocked: %+v", i, fast.Stats())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	st, err := fast.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.DroppedFrames != 0 || st.AckedFrames != frames {
		t.Fatalf("fast connection: %+v, want %d acked and no drops", st, frames)
	}
}

// TestServerBadHeader pins that garbage connections are rejected
// without wedging the accept loop.
func TestServerBadHeader(t *testing.T) {
	sink := &collectSink{}
	srv, addr := startServer(t, Config{Sink: sink})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err != nil || buf[0] != StatusBad {
		t.Fatalf("bad header response: %v %#x", err, buf[0])
	}
	conn.Close()

	// The server survives: a well-formed connection still works.
	c, err := Dial(addr, "ok")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch(testReqs(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if srv.badFrames.Load() == 0 {
		t.Fatal("bad header not counted")
	}
}

// TestServerMetricsInto pins that the wire metrics land in a Set.
func TestServerMetricsInto(t *testing.T) {
	sink := &collectSink{}
	srv, addr := startServer(t, Config{Sink: sink})
	set := telemetry.NewSet()
	srv.MetricsInto(set, "wire_")

	c, err := Dial(addr, "m")
	if err != nil {
		t.Fatal(err)
	}
	c.SendBatch(testReqs(100))
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	var sb strings.Builder
	if err := set.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"wire_requests_total 100",
		"wire_connections_total 1",
		"wire_dropped_requests_total 0",
		"wire_ingest_latency_seconds_bucket",
		"wire_ingest_latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// shortConn runs one short connection from pre-encoded bytes — header
// and frames in msg — then half-closes, checks the acks and waits for
// the server to close its side, which it does only after returning the
// connection's buffers to its pools. acks is the caller's, so the client
// side allocates no buffer per connection.
func shortConn(t *testing.T, addr string, msg []byte, acks []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, acks); err != nil {
		t.Fatal(err)
	}
	for i, a := range acks {
		if a != StatusOK {
			t.Fatalf("ack %d = %#x, want StatusOK", i, a)
		}
	}
	if n, err := conn.Read(acks[:1]); n != 0 || err != io.EOF {
		t.Fatalf("after the acks: read %d bytes, err %v; want io.EOF", n, err)
	}
}

// TestServerShortConnAllocs pins the recycled connection buffers: once
// warm, short connections (header, one frame, close) allocate far less
// than one 256 KiB read buffer each. The client writes raw pre-encoded
// bytes, since Client allocates its own writer per dial, so the
// process-wide figure bounds the server's.
func TestServerShortConnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	_, addr := startServer(t, Config{Sink: SinkFunc(func(string, []trace.Request) error { return nil })})
	var hdr bytes.Buffer
	if err := WriteHeader(&hdr, "short"); err != nil {
		t.Fatal(err)
	}
	msg := AppendFrame(hdr.Bytes(), testReqs(32))
	acks := make([]byte, 1)
	for i := 0; i < 20; i++ {
		shortConn(t, addr, msg, acks)
	}

	const conns = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < conns; i++ {
		shortConn(t, addr, msg, acks)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / conns
	t.Logf("%d bytes allocated per short connection", per)
	if per >= 32<<10 {
		t.Fatalf("%d bytes allocated per short connection, want < %d", per, 32<<10)
	}
}

// TestServerRecycledReaderStartsClean pins that a recycled read buffer
// carries nothing over: connection A sends a header and 1.5 frames and
// closes; connection B, served on A's recycled reader, ingests exactly
// its own frames, and only A's torn frame counts as bad.
func TestServerRecycledReaderStartsClean(t *testing.T) {
	// One P, so B's pool Get returns the reader A's connection put back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sink := &collectSink{}
	srv, addr := startServer(t, Config{Sink: sink})
	set := telemetry.NewSet()
	srv.MetricsInto(set, "wire_")

	a, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := WriteHeader(a, "A"); err != nil {
		t.Fatal(err)
	}
	frame := AppendFrame(nil, testReqs(100))
	if _, err := a.Write(append(append([]byte(nil), frame...), frame[:len(frame)/2]...)); err != nil {
		t.Fatal(err)
	}
	ack := make([]byte, 1)
	a.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(a, ack); err != nil || ack[0] != StatusOK {
		t.Fatalf("A's first ack %#x, err %v; want StatusOK", ack[0], err)
	}
	a.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.active.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("wire_connections_active stuck at %d", srv.active.Load())
		}
		time.Sleep(time.Millisecond)
	}

	b, err := Dial(addr, "B")
	if err != nil {
		t.Fatal(err)
	}
	want := testReqs(300)
	for off := 0; off < len(want); off += 100 {
		if err := b.SendBatch(want[off : off+100]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	sink.mu.Lock()
	gotA, gotB := len(sink.got["A"]), sink.got["B"]
	sink.mu.Unlock()
	if gotA != 100 {
		t.Fatalf("A ingested %d requests, want 100", gotA)
	}
	if len(gotB) != len(want) {
		t.Fatalf("B ingested %d requests, want %d", len(gotB), len(want))
	}
	for i := range want {
		if gotB[i] != want[i] {
			t.Fatalf("B request %d = %+v, want %+v", i, gotB[i], want[i])
		}
	}
	var sb strings.Builder
	if err := set.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"wire_bad_frames_total 1\n", "wire_frames_total 4\n"} {
		if !strings.Contains(sb.String(), line) {
			t.Fatalf("metrics missing %q:\n%s", line, sb.String())
		}
	}
}
