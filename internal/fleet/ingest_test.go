package fleet

import (
	"errors"
	"runtime"
	"strconv"
	"strings"
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

// badDefault is a registry default spec no tenant can be built from:
// once a tenant created with a valid spec is evicted, the next
// IngestBatch for its id fails in Ensure.
var badDefault = Spec{Model: "krr", Options: model.Options{K: -1}}

// isBadDefaultErr reports whether err is Ensure's failure to build a
// tenant from badDefault.
func isBadDefaultErr(err error) bool {
	return err != nil && strings.Contains(err.Error(), "options K = -1")
}

// TestIngestBatchErrorStopsDecoder evicts the tenant while Ingest
// drains an endless reader into it, under a registry whose default
// spec cannot be built: the first two batches are ingested, the third
// fails to re-create the tenant, and Ingest returns with its decoder
// stopped after at most one more batch.
func TestIngestBatchErrorStopsDecoder(t *testing.T) {
	base := runtime.NumGoroutine()
	r := NewRegistry(Config{Default: badDefault})
	ten, err := r.Create("a", Spec{Model: "krr"})
	if err != nil {
		t.Fatal(err)
	}
	reader := &endlessReader{before: func(i int64) {
		if i != 2*ingestBatchLen {
			return
		}
		// The third batch starts decoding once the first is ingested;
		// evict only after the second is too.
		for ten.requests.Load() < 2*ingestBatchLen {
			time.Sleep(100 * time.Microsecond)
		}
		r.Evict("a")
	}}
	n, err := r.Ingest("a", reader)
	if !isBadDefaultErr(err) {
		t.Fatalf("error %v, want the default spec's build error", err)
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
	const warm, runs = 5, 50
	// Each run evicts its own tenant, so all are created up front,
	// outside the measured allocations.
	r := NewRegistry(Config{Default: badDefault})
	for i := 0; i < warm+runs; i++ {
		if _, err := r.Create(strconv.Itoa(i), Spec{Model: "krr"}); err != nil {
			t.Fatal(err)
		}
	}
	run := func(i int) {
		id := strconv.Itoa(i)
		n, err := r.Ingest(id, &endlessReader{before: func(j int64) {
			if j == 0 {
				r.Evict(id)
			}
		}})
		if n != 0 || !isBadDefaultErr(err) {
			t.Fatalf("Ingest into a tenant evicted mid-body: %d, %v", n, err)
		}
	}
	for i := 0; i < warm; i++ {
		run(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+runs; i++ {
		run(i)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per failed Ingest", per)
	if per >= 4<<10 {
		t.Fatalf("%d bytes allocated per failed Ingest, want < %d", per, 4<<10)
	}
}

// TestIngestBatchEvictionRace evicts the tenant between
// Registry.IngestBatch's lookup and its batch, from the Clock the
// lookup's touch reads. The batch must land in the fresh tenant the id
// resolves to afterwards, without an error, for serial and sharded
// models alike.
func TestIngestBatchEvictionRace(t *testing.T) {
	for _, workers := range []int{0, 2} {
		var r *Registry
		var armed atomic.Bool
		r = NewRegistry(Config{
			Default: Spec{Model: "krr", Options: model.Options{Workers: workers}},
			Clock: func() time.Time {
				if armed.CompareAndSwap(true, false) {
					r.Evict("a")
				}
				return time.Unix(0, 0)
			},
		})
		if _, err := r.Ensure("a"); err != nil {
			t.Fatal(err)
		}
		reqs := make([]trace.Request, 100)
		for i := range reqs {
			reqs[i] = trace.Request{Key: uint64(i % 7), Size: 1}
		}
		armed.Store(true)
		if err := r.IngestBatch("a", reqs); err != nil {
			t.Fatalf("Workers %d: IngestBatch across an eviction: %v", workers, err)
		}
		ten, ok := r.Get("a")
		if !ok {
			t.Fatalf("Workers %d: no tenant after the batch", workers)
		}
		if seen := ten.Stats().Seen; seen != uint64(len(reqs)) {
			t.Fatalf("Workers %d: fresh tenant saw %d requests, want %d", workers, seen, len(reqs))
		}
		r.Evict("a")
	}
}
