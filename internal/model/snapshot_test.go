package model

import (
	"fmt"
	"sync"
	"testing"

	"krr/internal/trace"
)

// snapshotVariants enumerates the option sets a model's snapshot
// contract is held to: plain, spatially sampled, byte-granularity
// (CapBytes only), and the sharded pipeline (CapSharded only).
func snapshotVariants(info Info) []Options {
	variants := []Options{
		{Seed: 7},
		{Seed: 7, SamplingRate: 0.1},
	}
	if info.Caps.Has(CapBytes) {
		variants = append(variants, Options{Seed: 7, Bytes: BytesOn})
	}
	if info.Caps.Has(CapSharded) {
		variants = append(variants, Options{Seed: 7, Workers: 3})
		if info.Caps.Has(CapBytes) {
			variants = append(variants, Options{Seed: 7, Workers: 3, Bytes: BytesOn})
		}
	}
	return variants
}

// TestSnapshotAtEOFBitIdentical pins the read contract at end-of-stream
// for every registry entry and the Sharded wrapper: a repeated Snapshot
// is bit-identical to the first, and so is one taken after Close, which
// for Sharded reads the drained histograms instead of quiescing the
// pipe.
//
// The trace length is deliberately not a multiple of the Counter
// Stacks downsampling interval, so the partial-batch snapshot path
// (clone + flush on the copy) is exercised rather than the trivial
// pending == 0 fast path.
func TestSnapshotAtEOFBitIdentical(t *testing.T) {
	tr := synthTrace(t, 20500, 2000, 11)
	for _, info := range All() {
		info := info
		for _, opts := range snapshotVariants(info) {
			opts := opts
			name := fmt.Sprintf("%s/rate=%v/bytes=%v/w=%d", info.Name, opts.SamplingRate, opts.Bytes, opts.Workers)
			t.Run(name, func(t *testing.T) {
				m, err := New(info.Name, opts)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				feed(t, m, tr)

				snap := m.Snapshot()
				if snap.Stats.Seen != uint64(tr.Len()) {
					t.Fatalf("snapshot Seen = %d, want %d", snap.Stats.Seen, tr.Len())
				}
				checkCurveShape(t, snap.Object, "snapshot object curve")
				if opts.Bytes != BytesOff {
					if snap.Byte == nil {
						t.Fatal("byte mode set but the snapshot byte curve is nil")
					}
					checkCurveShape(t, snap.Byte, "snapshot byte curve")
				} else if snap.Byte != nil {
					t.Fatal("snapshot byte curve must be nil with bytes off")
				}

				if !sameSnapshot(m.Snapshot(), snap) {
					t.Fatal("repeated snapshot at EOF differs from the first")
				}
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
				if !sameSnapshot(m.Snapshot(), snap) {
					t.Fatal("snapshot after Close differs from the one before it")
				}
			})
		}
	}
}

// sameSnapshot reports whether two snapshots hold bit-identical curves
// and equal stream counters.
func sameSnapshot(a, b Snapshot) bool {
	if a.Stats != b.Stats || !sameBits(a.Object, b.Object) || (a.Byte == nil) != (b.Byte == nil) {
		return false
	}
	return a.Byte == nil || sameBits(a.Byte, b.Byte)
}

// TestSnapshotDoesNotPerturbStream checks that mid-stream snapshots
// leave the live state untouched: a model snapshotted repeatedly while
// streaming must end with exactly the curve of an undisturbed control
// model, and Process must stay legal after every snapshot.
func TestSnapshotDoesNotPerturbStream(t *testing.T) {
	tr := synthTrace(t, 20500, 2000, 13)
	reqs := materialize(t, tr)
	for _, info := range All() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			opts := Options{Seed: 5}
			probed, err := New(info.Name, opts)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			var lastSeen uint64
			for i, req := range reqs {
				if err := probed.Process(req); err != nil {
					t.Fatalf("Process after snapshot: %v", err)
				}
				if (i+1)%4096 == 0 {
					snap := probed.Snapshot()
					checkCurveShape(t, snap.Object, "mid-stream snapshot")
					if snap.Stats.Seen <= lastSeen {
						t.Fatalf("snapshot Seen not advancing: %d then %d", lastSeen, snap.Stats.Seen)
					}
					lastSeen = snap.Stats.Seen
				}
			}
			control := buildCurve(t, info.Name, opts, tr)
			if !sameCurve(probed.Snapshot().Object, control) {
				t.Fatalf("%s: mid-stream snapshots perturbed the final curve", info.Name)
			}
		})
	}
}

// materialize flattens a trace into a request slice for per-request
// driving.
func materialize(t *testing.T, tr *trace.Trace) []trace.Request {
	t.Helper()
	var reqs []trace.Request
	r := tr.Reader()
	for {
		req, err := r.Next()
		if err != nil {
			break
		}
		reqs = append(reqs, req)
	}
	if len(reqs) != tr.Len() {
		t.Fatalf("materialized %d of %d requests", len(reqs), tr.Len())
	}
	return reqs
}

// TestShardedSnapshotConcurrent drives a Sharded model's Process from
// one goroutine while another takes periodic snapshots — the online
// monitoring deployment. Run under -race this pins the quiesce
// barrier's synchronization; the final curve must equal an undisturbed
// control, proving snapshots don't drop, duplicate, or reorder
// requests.
func TestShardedSnapshotConcurrent(t *testing.T) {
	tr := synthTrace(t, 30000, 2500, 17)
	reqs := materialize(t, tr)
	opts := Options{Seed: 9, Workers: 4}

	m, err := New("krr", opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*Sharded); !ok {
		t.Fatalf("Workers=4 built %T, want *Sharded", m)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			snap := m.Snapshot()
			if snap.Object == nil {
				t.Error("concurrent snapshot returned nil curve")
				return
			}
		}
	}()
	for _, req := range reqs {
		if err := m.Process(req); err != nil {
			t.Fatalf("Process: %v", err)
		}
	}
	close(done)
	wg.Wait()

	defer m.Close()
	control := buildCurve(t, "krr", opts, tr)
	if !sameCurve(m.Snapshot().Object, control) {
		t.Fatal("concurrent snapshots perturbed the sharded curve")
	}
}
