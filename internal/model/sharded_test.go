package model

import (
	"testing"

	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
)

// TestShardedMatchesCoreShardedProfiler pins the generic wrapper to
// the KRR-specific pipeline it replaced, core.ShardedProfiler (same
// seeds, same router, same merge): the digest below was recorded from
// that pipeline on this trace and options.
func TestShardedMatchesCoreShardedProfiler(t *testing.T) {
	tr := synthTrace(t, 30000, 3000, 21)
	m, err := New("krr", Options{K: 5, Seed: 42, SamplingRate: 0.2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, m, tr)
	const want = "0829b59393ea1e929ebe2de77e540863507f22f7a39535088a5ef0cfbd92960b"
	defer m.Close()
	if got := curveDigest(m.Snapshot().Object); got != want {
		t.Fatalf("model.Sharded(krr) diverges from core.ShardedProfiler: digest %s, want %s", got, want)
	}
}

// TestShardedVsSerial is the acceptance bound: on two preset-style
// workloads, the sharded curve stays within MAE 0.01 of the serial
// model's. Sharding is spatial sampling at rate 1/W with full
// coverage, so the two are estimates of the same curve.
func TestShardedVsSerial(t *testing.T) {
	workloads := []struct {
		name string
		gen  trace.Reader
		n    int
		wss  uint64
	}{
		{"zipf", workload.NewZipf(31, 20000, 0.9, workload.FixedSize(trace.DefaultObjectSize), 0.1), 150000, 20000},
		{"uniform", workload.NewUniform(77, 8000, workload.FixedSize(trace.DefaultObjectSize)), 120000, 8000},
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			tr, err := trace.Collect(w.gen, w.n)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"krr", "krr-bucket", "olken", "mimir"} {
				serial := buildCurve(t, name, Options{Seed: 9}, tr)
				sharded := buildCurve(t, name, Options{Seed: 9, Workers: 4}, tr)
				at := mrc.EvenSizes(w.wss, 64)
				if mae := mrc.MAE(serial, sharded, at); mae > 0.01 {
					t.Errorf("%s: MAE(serial, 4-way sharded) = %.4f > 0.01", name, mae)
				}
			}
		})
	}
}

// TestShardedLifecycle covers the wrapper's own Model contract: stats,
// byte curves, Close as the terminal state, and worker clamping.
func TestShardedLifecycle(t *testing.T) {
	tr := synthTrace(t, 10000, 1000, 13)
	s, err := NewSharded("krr", 3, Options{Seed: 5, Bytes: BytesOn})
	if err != nil {
		t.Fatal(err)
	}
	if s.Workers() != 3 {
		t.Fatalf("Workers = %d, want 3", s.Workers())
	}
	feed(t, s, tr)
	snap := s.Snapshot()
	checkCurveShape(t, snap.Object, "sharded/obj")
	if snap.Byte == nil {
		t.Fatal("nil byte curve with BytesOn")
	}
	checkCurveShape(t, snap.Byte, "sharded/bytes")
	if err := s.Process(trace.Request{Key: 1}); err != nil {
		t.Fatalf("Process after Snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Process(trace.Request{Key: 2}); err != ErrClosed {
		t.Fatalf("Process after Close: %v, want ErrClosed", err)
	}
	st := s.Stats()
	if st.Seen != uint64(tr.Len())+1 || st.Sampled != st.Seen {
		t.Fatalf("stats = %+v", st)
	}

	// Workers < 1 clamps to a single shard.
	s1, err := NewSharded("olken", 0, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Workers() != 1 {
		t.Fatalf("Workers = %d, want 1", s1.Workers())
	}
	defer s1.Close()
	feed(t, s1, tr)
	checkCurveShape(t, s1.Snapshot().Object, "sharded/1way")
}

// TestShardedRejectsUnmergeable: CapSharded is the gate.
func TestShardedRejectsUnmergeable(t *testing.T) {
	for _, name := range []string{"aet", "counterstacks", "shards", "lfu"} {
		if _, err := NewSharded(name, 4, Options{}); err == nil {
			t.Errorf("NewSharded(%s) accepted a model without CapSharded", name)
		}
	}
	if _, err := NewSharded("nope", 4, Options{}); err == nil {
		t.Error("NewSharded accepted an unknown model")
	}
}
