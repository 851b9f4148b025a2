package model

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"krr/internal/histogram"
	"krr/internal/mrc"
)

// sameBits reports whether two curves match bit for bit, including
// the interpolation mode.
func sameBits(a, b *mrc.Curve) bool {
	if a.Interp != b.Interp || len(a.Sizes) != len(b.Sizes) || len(a.Miss) != len(b.Miss) {
		return false
	}
	for i := range a.Sizes {
		if a.Sizes[i] != b.Sizes[i] || math.Float64bits(a.Miss[i]) != math.Float64bits(b.Miss[i]) {
			return false
		}
	}
	return true
}

// checkHistRead holds one histogram read to the ReadObjectHist
// contract: the curve of the copy is bit-identical to a Snapshot taken
// at the same stream position. It reports whether the model offered a
// read.
func checkHistRead(t *testing.T, m Model, dst *histogram.Dense, label string) bool {
	t.Helper()
	scale, st, ok := m.ReadObjectHist(dst)
	if !ok {
		return false
	}
	snap := m.Snapshot()
	if st != snap.Stats {
		t.Fatalf("%s: read stats %+v, snapshot stats %+v", label, st, snap.Stats)
	}
	if got := mrc.FromHistogram(dst, scale); !sameBits(got, snap.Object) {
		t.Fatalf("%s: curve of the histogram read differs from Snapshot().Object", label)
	}
	return true
}

// TestReadObjectHistMatchesSnapshot pins ReadObjectHist for every
// registry entry and variant, mid-stream, at end-of-stream and after
// Close: exactly the models whose object curve is one dense histogram's
// — the CapSharded ones, Sharded over them, lfu and mru — offer a
// histogram read, and its curve equals Snapshot().Object. One destination histogram is
// reused across every read, as the fleet's pool reuses them, so stale
// contents from a larger earlier read would show.
func TestReadObjectHistMatchesSnapshot(t *testing.T) {
	tr := synthTrace(t, 20500, 2000, 11)
	reqs := materialize(t, tr)
	dst := histogram.NewDense(0)
	for _, info := range All() {
		for _, opts := range snapshotVariants(info) {
			label := fmt.Sprintf("%s/rate=%v/bytes=%v/w=%d", info.Name, opts.SamplingRate, opts.Bytes, opts.Workers)
			m, err := New(info.Name, opts)
			if err != nil {
				t.Fatalf("%s: New: %v", label, err)
			}
			if err := m.ProcessBatch(reqs[:len(reqs)/3]); err != nil {
				t.Fatal(err)
			}
			offered := checkHistRead(t, m, dst, label+" mid-stream")
			if want := info.Caps.Has(CapSharded) || info.Name == "lfu" || info.Name == "mru"; offered != want {
				t.Fatalf("%s: histogram read offered = %v, want %v", label, offered, want)
			}
			if err := m.ProcessBatch(reqs[len(reqs)/3:]); err != nil {
				t.Fatal(err)
			}
			checkHistRead(t, m, dst, label+" end-of-stream")
			final := m.Snapshot().Object
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if offered {
				// After Close the read still matches the final curve.
				scale, _, _ := m.ReadObjectHist(dst)
				if !sameBits(mrc.FromHistogram(dst, scale), final) {
					t.Fatalf("%s: read after Close differs from the curve before it", label)
				}
			}
		}
	}
}

// TestReadObjectHistShardedConcurrent reads a Workers=2 Sharded model
// while another goroutine streams batches into it — the fleet's live
// deployment. Under -race it pins the read's quiesce; whenever a read
// and the snapshot that follows it saw the same stream position their
// curves must match bit for bit.
func TestReadObjectHistShardedConcurrent(t *testing.T) {
	tr := synthTrace(t, 60000, 5000, 23)
	reqs := materialize(t, tr)
	for _, name := range []string{"krr", "krr-bucket", "olken"} {
		m, err := New(name, Options{Seed: 3, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		done := make(chan struct{})
		go func() {
			defer wg.Done()
			defer close(done)
			for off := 0; off < len(reqs); off += 256 {
				if err := m.ProcessBatch(reqs[off:min(off+256, len(reqs))]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		dst := histogram.NewDense(0)
		var compared int
		for finished := false; !finished; {
			select {
			case <-done: // one last pair at end-of-stream
				finished = true
			default:
			}
			scale, st, ok := m.ReadObjectHist(dst)
			if !ok {
				t.Fatalf("%s: sharded model offered no histogram read", name)
			}
			snap := m.Snapshot()
			if snap.Stats == st {
				compared++
				if !sameBits(mrc.FromHistogram(dst, scale), snap.Object) {
					t.Fatalf("%s: read at seen=%d differs from the snapshot at the same position", name, st.Seen)
				}
			}
		}
		wg.Wait()
		if compared == 0 {
			t.Fatalf("%s: no read/snapshot pair at the same position", name)
		}
		t.Logf("%s: %d read/snapshot pairs compared", name, compared)
		m.Close()
	}
}
