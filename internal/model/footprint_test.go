package model

import (
	"runtime"
	"testing"

	"krr/internal/trace"
)

// TestFootprintAllModels holds every registry entry to the
// FootprintSource contract: after processing a stream, the reported
// resident size is positive and grows with the tracked population.
func TestFootprintAllModels(t *testing.T) {
	for _, info := range All() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			m, err := New(info.Name, Options{Seed: 1})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			fs, ok := m.(FootprintSource)
			if !ok {
				t.Fatalf("%s does not implement FootprintSource", info.Name)
			}
			small := feedKeys(t, m, 64)
			big, err2 := New(info.Name, Options{Seed: 1})
			if err2 != nil {
				t.Fatalf("New: %v", err2)
			}
			bigFp := feedKeys(t, big, 4096)
			if small <= 0 {
				t.Fatalf("footprint after 64 keys = %d, want > 0", small)
			}
			if bigFp < small {
				t.Fatalf("footprint shrank with population: 64 keys -> %d, 4096 keys -> %d", small, bigFp)
			}
			_ = fs
		})
	}
}

// feedKeys processes n distinct keys and returns the model footprint.
func feedKeys(t *testing.T, m Model, n int) int64 {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := m.Process(trace.Request{Key: uint64(i), Size: 100}); err != nil {
			t.Fatalf("Process: %v", err)
		}
	}
	return FootprintOf(m)
}

// TestShardedFootprintAndClose checks the wrapper sums shard
// footprints mid-stream (through a quiesce) and that Close releases
// the pipeline idempotently.
func TestShardedFootprintAndClose(t *testing.T) {
	s, err := NewSharded("krr", 4, Options{Seed: 1})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	for i := 0; i < 2048; i++ {
		if err := s.Process(trace.Request{Key: uint64(i % 300), Size: 10}); err != nil {
			t.Fatalf("Process: %v", err)
		}
	}
	if fp := s.Footprint(); fp <= 0 {
		t.Fatalf("sharded footprint = %d, want > 0", fp)
	}
	if err := s.Process(trace.Request{Key: 1, Size: 10}); err != nil {
		t.Fatalf("Process after Footprint: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Process(trace.Request{Key: 1, Size: 10}); err != ErrFinalized {
		t.Fatalf("Process after Close = %v, want ErrFinalized", err)
	}
	if fp := s.Footprint(); fp <= 0 {
		t.Fatalf("post-close footprint = %d, want > 0", fp)
	}
}

// TestBucketFootprintMatchesHeap holds krr-bucket's reported footprint
// to the heap it actually pins: after a GC, FootprintOf must be within
// ±25% of the HeapAlloc growth from building the model and feeding it
// ~200k distinct keys (then re-referencing them so the histogram
// spans the stack). Fleet memory budgets and evictions act on this
// number, so an accounting formula that drifts from the layout fails
// here rather than in an over-committed daemon.
func TestBucketFootprintMatchesHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("measures heap growth at 200k keys")
	}
	const keys = 200_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := New("krr-bucket", Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for i := uint64(0); i < keys; i++ {
			if err := m.Process(trace.Request{Key: i * 0x9e3779b97f4a7c15, Size: 100}); err != nil {
				t.Fatal(err)
			}
		}
	}
	fp := FootprintOf(m)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	ratio := float64(fp) / float64(heap)
	t.Logf("footprint %d B, heap growth %d B, ratio %.3f", fp, heap, ratio)
	if ratio < 0.75 || ratio > 1.25 {
		t.Fatalf("footprint %d B is %.2fx the measured heap growth %d B, want within ±25%%", fp, ratio, heap)
	}
}
