package model

import (
	"testing"

	"krr/internal/trace"
)

// TestShardedProcessBatchEquivalence pins the batched ingest fast path
// to per-request Process: same options, same stream, arbitrary batch
// boundaries — bit-identical curves and identical stream counters.
func TestShardedProcessBatchEquivalence(t *testing.T) {
	tr := synthTrace(t, 40000, 4000, 7)
	reqs := tr.Reqs
	opts := Options{K: 5, Seed: 11, SamplingRate: 0.3, Workers: 4, Bytes: BytesOn}

	serial, err := New("krr", opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range reqs {
		if err := serial.Process(req); err != nil {
			t.Fatal(err)
		}
	}

	batched, err := New("krr", opts)
	if err != nil {
		t.Fatal(err)
	}
	bp, ok := batched.(BatchProcessor)
	if !ok {
		t.Fatal("sharded model does not implement BatchProcessor")
	}
	// Ragged batch boundaries, including empty and oversized chunks.
	sizes := []int{1, 0, 7, 4096, 63, 997, 2}
	for i := 0; len(reqs) > 0; i++ {
		n := sizes[i%len(sizes)]
		if n > len(reqs) {
			n = len(reqs)
		}
		if err := bp.ProcessBatch(reqs[:n]); err != nil {
			t.Fatal(err)
		}
		reqs = reqs[n:]
	}

	ss, bs := serial.Stats(), batched.Stats()
	if ss.Seen != bs.Seen || ss.Sampled != bs.Sampled {
		t.Fatalf("stats diverge: serial %+v batched %+v", ss, bs)
	}
	if !sameCurve(serial.ObjectMRC(), batched.ObjectMRC()) {
		t.Fatal("object curves diverge between Process and ProcessBatch")
	}
	if !sameCurve(serial.ByteMRC(), batched.ByteMRC()) {
		t.Fatal("byte curves diverge between Process and ProcessBatch")
	}
}

// TestStreamProcessBatchEquivalence pins every registry entry's batch
// path to per-request Process: ragged batches must leave bit-identical
// curves and stream counters, with spatial sampling off and on (which
// covers the filter, the admit mirror of aet/shards, and neither).
func TestStreamProcessBatchEquivalence(t *testing.T) {
	tr := synthTrace(t, 20000, 2000, 5)
	sizes := []int{1, 0, 7, 64, 63, 997, 2}
	for _, info := range All() {
		for _, rate := range []float64{0, 0.3} {
			opts := Options{Seed: 1, SamplingRate: rate}
			serial, err := New(info.Name, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, req := range tr.Reqs {
				if err := serial.Process(req); err != nil {
					t.Fatal(err)
				}
			}
			batched, err := New(info.Name, opts)
			if err != nil {
				t.Fatal(err)
			}
			bp, ok := batched.(BatchProcessor)
			if !ok {
				t.Fatalf("%s does not implement BatchProcessor", info.Name)
			}
			reqs := tr.Reqs
			for i := 0; len(reqs) > 0; i++ {
				n := min(sizes[i%len(sizes)], len(reqs))
				if err := bp.ProcessBatch(reqs[:n]); err != nil {
					t.Fatal(err)
				}
				reqs = reqs[n:]
			}
			if ss, bs := serial.Stats(), batched.Stats(); ss != bs {
				t.Fatalf("%s rate %v: stats diverge: Process %+v ProcessBatch %+v", info.Name, rate, ss, bs)
			}
			if !sameCurve(serial.ObjectMRC(), batched.ObjectMRC()) {
				t.Fatalf("%s rate %v: curves diverge between Process and ProcessBatch", info.Name, rate)
			}
			if err := bp.ProcessBatch(tr.Reqs[:1]); err != ErrFinalized {
				t.Fatalf("%s: ProcessBatch after finalize = %v, want ErrFinalized", info.Name, err)
			}
		}
	}
}

// processOnly hides a model's BatchProcessor, leaving only Model.
type processOnly struct{ Model }

// TestProcessBatchFallback pins the helper's per-request fallback for
// models that do not implement BatchProcessor.
func TestProcessBatchFallback(t *testing.T) {
	tr := synthTrace(t, 5000, 500, 3)
	reqs := tr.Reqs
	opts := Options{K: 5, Seed: 9}

	serial, err := New("krr", opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range reqs {
		if err := serial.Process(req); err != nil {
			t.Fatal(err)
		}
	}
	inner, err := New("krr", opts)
	if err != nil {
		t.Fatal(err)
	}
	var viaHelper Model = processOnly{inner}
	if _, ok := viaHelper.(BatchProcessor); ok {
		t.Fatal("wrapped model implements BatchProcessor; fallback untested")
	}
	for off := 0; off < len(reqs); off += 321 {
		end := off + 321
		if end > len(reqs) {
			end = len(reqs)
		}
		if err := ProcessBatch(viaHelper, reqs[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if !sameCurve(serial.ObjectMRC(), viaHelper.ObjectMRC()) {
		t.Fatal("ProcessBatch fallback diverges from Process")
	}
}

// TestShardedProcessBatchAfterFinalize pins the guard.
func TestShardedProcessBatchAfterFinalize(t *testing.T) {
	m, err := New("krr", Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	bp := m.(BatchProcessor)
	if err := bp.ProcessBatch([]trace.Request{{Key: 1, Size: 1}}); err != nil {
		t.Fatal(err)
	}
	m.ObjectMRC()
	if err := bp.ProcessBatch([]trace.Request{{Key: 2, Size: 1}}); err != ErrFinalized {
		t.Fatalf("ProcessBatch after finalize = %v, want ErrFinalized", err)
	}
}
