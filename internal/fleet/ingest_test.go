package fleet

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"krr/internal/model"
	"krr/internal/trace"
)

// endlessReader yields requests until its next call reaches failAt,
// which returns err; with err nil it never ends. before, when set, runs
// ahead of each call with the call's index.
type endlessReader struct {
	calls  atomic.Int64
	failAt int64
	err    error
	before func(i int64)
}

func (r *endlessReader) Next() (trace.Request, error) {
	i := r.calls.Add(1) - 1
	if r.before != nil {
		r.before(i)
	}
	if r.err != nil && i >= r.failAt {
		return trace.Request{}, r.err
	}
	return trace.Request{Key: uint64(i % 1000), Size: 1, Op: trace.OpGet}, nil
}

// waitGoroutines fails unless the goroutine count falls back to base:
// Ingest must not leave its decoder running.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Ingest, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIngestDecodeErrorMidBody pins Ingest's result when the reader
// fails: every request decoded before the error is ingested and
// counted, the reader's error comes back as it is, and the decoder
// exits. Failures at the start, inside, and on the edge of a batch.
func TestIngestDecodeErrorMidBody(t *testing.T) {
	bad := errors.New("line 5001: bad request")
	base := runtime.NumGoroutine()
	for _, at := range []int64{0, 100, ingestBatchLen, ingestBatchLen + 904, 2*ingestBatchLen + 3} {
		r := NewRegistry(Config{})
		n, err := r.Ingest("a", &endlessReader{failAt: at, err: bad})
		if !errors.Is(err, bad) || err.Error() != bad.Error() {
			t.Fatalf("failure at %d: error %v, want %v", at, err, bad)
		}
		if n != uint64(at) {
			t.Fatalf("failure at %d: ingested %d", at, n)
		}
		ten, _ := r.Get("a")
		if got := ten.requests.Load(); got != uint64(at) {
			t.Fatalf("failure at %d: tenant counted %d requests", at, got)
		}
		waitGoroutines(t, base)
	}
}

// TestIngestBatchErrorStopsDecoder finalizes the tenant's model while
// Ingest drains an endless reader: the first two batches are ingested,
// the third fails with model.ErrFinalized, and Ingest returns with its
// decoder stopped after at most one more batch.
func TestIngestBatchErrorStopsDecoder(t *testing.T) {
	base := runtime.NumGoroutine()
	r := NewRegistry(Config{})
	ten, err := r.Ensure("a")
	if err != nil {
		t.Fatal(err)
	}
	reader := &endlessReader{before: func(i int64) {
		if i != 2*ingestBatchLen {
			return
		}
		// The third batch starts decoding once the first is ingested;
		// finalize only after the second is too.
		for ten.requests.Load() < 2*ingestBatchLen {
			time.Sleep(100 * time.Microsecond)
		}
		ten.mu.Lock()
		ten.model.ObjectMRC()
		ten.mu.Unlock()
	}}
	n, err := r.Ingest("a", reader)
	if !errors.Is(err, model.ErrFinalized) {
		t.Fatalf("error %v, want %v", err, model.ErrFinalized)
	}
	if n != 2*ingestBatchLen {
		t.Fatalf("ingested %d, want %d", n, 2*ingestBatchLen)
	}
	if calls := reader.calls.Load(); calls > 4*ingestBatchLen {
		t.Fatalf("decoder read %d requests after the failure at %d", calls, 2*ingestBatchLen)
	}
	waitGoroutines(t, base)
}

// TestIngestErrorReturnsPooledBatches pins that a failed Ingest puts
// both of its pooled batches back: repeated failures allocate far less
// than one 64 KiB batch each.
func TestIngestErrorReturnsPooledBatches(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	r := NewRegistry(Config{})
	ten, err := r.Ensure("a")
	if err != nil {
		t.Fatal(err)
	}
	ten.mu.Lock()
	ten.model.ObjectMRC()
	ten.mu.Unlock()
	run := func() {
		n, err := r.Ingest("a", &endlessReader{})
		if n != 0 || !errors.Is(err, model.ErrFinalized) {
			t.Fatalf("Ingest into a finalized tenant: %d, %v", n, err)
		}
	}
	for i := 0; i < 5; i++ {
		run()
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per failed Ingest", per)
	if per >= 4<<10 {
		t.Fatalf("%d bytes allocated per failed Ingest, want < %d", per, 4<<10)
	}
}
