package fleet

import (
	"io"
	"testing"

	"krr/internal/model"
	"krr/internal/trace"
)

// readAll drains a reader into a slice.
func readAll(t *testing.T, r trace.Reader) []trace.Request {
	t.Helper()
	var out []trace.Request
	for {
		req, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, req)
	}
}

// TestIngestBatchMatchesIngest pins the wire sink path to the
// reader-based path: same stream, same spec — identical curves and
// request counters.
func TestIngestBatchMatchesIngest(t *testing.T) {
	reqs := readAll(t, zipfTrace(5, 800, 0, 20000))

	viaReader := NewRegistry(Config{})
	if _, err := viaReader.Ingest("a", trace.LimitReader(&sliceReader{reqs: reqs}, len(reqs))); err != nil {
		t.Fatal(err)
	}

	viaBatch := NewRegistry(Config{})
	for off := 0; off < len(reqs); off += 1333 {
		end := off + 1333
		if end > len(reqs) {
			end = len(reqs)
		}
		if err := viaBatch.IngestBatch("a", reqs[off:end]); err != nil {
			t.Fatal(err)
		}
	}

	ta, _ := viaReader.Get("a")
	tb, _ := viaBatch.Get("a")
	if ta.requests.Load() != tb.requests.Load() {
		t.Fatalf("request counters: reader %d batch %d", ta.requests.Load(), tb.requests.Load())
	}
	sa, sb := ta.Snapshot(), tb.Snapshot()
	if sa.Stats.Seen != sb.Stats.Seen {
		t.Fatalf("seen: reader %d batch %d", sa.Stats.Seen, sb.Stats.Seen)
	}
	if len(sa.Object.Sizes) != len(sb.Object.Sizes) {
		t.Fatalf("curve sizes: reader %d batch %d", len(sa.Object.Sizes), len(sb.Object.Sizes))
	}
	for i := range sa.Object.Sizes {
		if sa.Object.Sizes[i] != sb.Object.Sizes[i] || sa.Object.Miss[i] != sb.Object.Miss[i] {
			t.Fatalf("curves diverge at %d", i)
		}
	}
}

// sliceReader mirrors trace.Trace's reader for a raw slice.
type sliceReader struct {
	reqs []trace.Request
	i    int
}

func (r *sliceReader) Next() (trace.Request, error) {
	if r.i >= len(r.reqs) {
		return trace.Request{}, io.EOF
	}
	req := r.reqs[r.i]
	r.i++
	return req, nil
}

// TestIngestBatchShardedModel pins the batch path through a sharded
// model end to end.
func TestIngestBatchShardedModel(t *testing.T) {
	r := NewRegistry(Config{Default: Spec{Model: "krr", Options: model.Options{Workers: 2}}})
	reqs := readAll(t, zipfTrace(9, 400, 0, 8000))
	for off := 0; off < len(reqs); off += 512 {
		end := off + 512
		if end > len(reqs) {
			end = len(reqs)
		}
		if err := r.IngestBatch("s", reqs[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	ten, ok := r.Get("s")
	if !ok {
		t.Fatal("tenant not created")
	}
	if got := ten.Stats().Seen; got != uint64(len(reqs)) {
		t.Fatalf("seen %d, want %d", got, len(reqs))
	}
	snap := ten.Snapshot()
	if snap.Object == nil || len(snap.Object.Sizes) == 0 {
		t.Fatal("empty curve after batched ingest")
	}
	if !r.Evict("s") {
		t.Fatal("evict failed")
	}
}

// TestIngestBatchFootprintCadence pins the amortization contract: the
// cached footprint refreshes every footprintEvery batches, not per
// call.
func TestIngestBatchFootprintCadence(t *testing.T) {
	r := NewRegistry(Config{})
	reqs := readAll(t, zipfTrace(13, 600, 0, footprintEvery*4))
	ten, err := r.Ensure("c")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < footprintEvery-1; i++ {
		refreshed, err := ten.IngestBatch(reqs[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		if refreshed {
			t.Fatalf("footprint refreshed at batch %d (< %d)", i+1, footprintEvery)
		}
	}
	if ten.Footprint() != 0 {
		t.Fatal("footprint cached before the refresh point")
	}
	refreshed, err := ten.IngestBatch(reqs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if !refreshed {
		t.Fatalf("footprint not refreshed at batch %d", footprintEvery)
	}
	if ten.Footprint() <= 0 {
		t.Fatal("footprint not populated by the refresh")
	}
}
