package model

import (
	"fmt"
	"testing"

	"krr/internal/mrc"
	"krr/internal/sampling"
	"krr/internal/trace"
	"krr/internal/workload"
)

// synthTrace materializes a reproducible Zipf trace so every model in
// a test sees the identical request sequence.
func synthTrace(t *testing.T, n int, keys, seed uint64) *trace.Trace {
	t.Helper()
	gen := workload.NewZipf(seed, keys, 0.9, workload.FixedSize(trace.DefaultObjectSize), 0.1)
	tr, err := trace.Collect(gen, n)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return tr
}

func feed(t *testing.T, m Model, tr *trace.Trace) {
	t.Helper()
	if err := ProcessAll(m, tr.Reader()); err != nil {
		t.Fatalf("ProcessAll: %v", err)
	}
}

// raggedBatches are the batch lengths feedBatches cycles through,
// including empty and oversized chunks.
var raggedBatches = []int{1, 0, 7, 64, 63, 997, 2}

// feedBatches drives m's ProcessBatch with tr cut at ragged
// boundaries.
func feedBatches(t *testing.T, m Model, tr *trace.Trace) {
	t.Helper()
	reqs := tr.Reqs
	for i := 0; len(reqs) > 0; i++ {
		n := min(raggedBatches[i%len(raggedBatches)], len(reqs))
		if err := m.ProcessBatch(reqs[:n]); err != nil {
			t.Fatal(err)
		}
		reqs = reqs[n:]
	}
}

// feedEach drives m one Process call per request.
func feedEach(t *testing.T, m Model, tr *trace.Trace) {
	t.Helper()
	for _, req := range tr.Reqs {
		if err := m.Process(req); err != nil {
			t.Fatal(err)
		}
	}
}

// streamDrivers are the two ways a stream reaches a model.
var streamDrivers = map[string]func(*testing.T, Model, *trace.Trace){"Process": feedEach, "ProcessBatch": feedBatches}

// buildCurve constructs the named model, replays tr, and returns the
// object curve.
func buildCurve(t *testing.T, name string, opts Options, tr *trace.Trace) *mrc.Curve {
	t.Helper()
	m, err := New(name, opts)
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	defer m.Close()
	feed(t, m, tr)
	return m.Snapshot().Object
}

func checkCurveShape(t *testing.T, c *mrc.Curve, label string) {
	t.Helper()
	if c == nil || len(c.Sizes) == 0 {
		t.Fatalf("%s: empty curve", label)
	}
	if len(c.Sizes) != len(c.Miss) {
		t.Fatalf("%s: %d sizes vs %d miss values", label, len(c.Sizes), len(c.Miss))
	}
	for i := range c.Sizes {
		if i > 0 && c.Sizes[i] <= c.Sizes[i-1] {
			t.Fatalf("%s: sizes not strictly increasing at %d: %d after %d",
				label, i, c.Sizes[i], c.Sizes[i-1])
		}
		if c.Miss[i] < 0 || c.Miss[i] > 1 {
			t.Fatalf("%s: miss[%d] = %v out of [0, 1]", label, i, c.Miss[i])
		}
		// Tolerate float summation jitter but no real increase.
		if i > 0 && c.Miss[i] > c.Miss[i-1]+1e-9 {
			t.Fatalf("%s: miss ratio increases at %d: %v after %v",
				label, i, c.Miss[i], c.Miss[i-1])
		}
	}
}

func sameCurve(a, b *mrc.Curve) bool {
	if len(a.Sizes) != len(b.Sizes) {
		return false
	}
	for i := range a.Sizes {
		if a.Sizes[i] != b.Sizes[i] || a.Miss[i] != b.Miss[i] {
			return false
		}
	}
	return true
}

// TestConformance holds every registry entry to the Model contract:
// sane monotone curves and bit-identical reruns under one seed.
func TestConformance(t *testing.T) {
	tr := synthTrace(t, 20000, 2000, 11)
	for _, info := range All() {
		info := info
		for _, opts := range []Options{
			{Seed: 7},
			{Seed: 7, SamplingRate: 0.1},
		} {
			opts := opts
			name := fmt.Sprintf("%s/rate=%v", info.Name, opts.SamplingRate)
			t.Run(name, func(t *testing.T) {
				c1 := buildCurve(t, info.Name, opts, tr)
				checkCurveShape(t, c1, info.Name)
				c2 := buildCurve(t, info.Name, opts, tr)
				if !sameCurve(c1, c2) {
					t.Fatalf("%s: same seed, different curves", info.Name)
				}
			})
		}
	}
}

// TestConformanceSampledCounter holds Stats.Sampled to an independent
// count of the requests sampling.NewRate(0.1) admits, through Process
// and ProcessBatch alike. That covers every model behind the adapter's
// filter, and aet and statstack, whose monitor owns the same filter and
// reports its decision. shards-fixedsize lowers its threshold as its
// sample set grows, so its count is held to the recorded digests
// instead (TestFixedSizeSampledMatchesDigests).
func TestConformanceSampledCounter(t *testing.T) {
	tr := synthTrace(t, 20000, 2000, 5)
	const rate = 0.1
	filter := sampling.NewRate(rate)
	var want uint64
	for _, req := range tr.Reqs {
		if filter.Sampled(req.Key) {
			want++
		}
	}
	for _, info := range All() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			for path, drive := range streamDrivers {
				m, err := New(info.Name, Options{Seed: 7, SamplingRate: rate})
				if err != nil {
					t.Fatal(err)
				}
				drive(t, m, tr)
				st := m.Stats()
				if st.Seen != uint64(tr.Len()) {
					t.Fatalf("%s: Seen = %d, want %d", path, st.Seen, tr.Len())
				}
				if st.Sampled == 0 || st.Sampled >= st.Seen {
					t.Fatalf("%s: Sampled = %d with rate 0.1 over %d requests", path, st.Sampled, st.Seen)
				}
				if info.Name != "shards-fixedsize" && st.Sampled != want {
					t.Fatalf("%s: Sampled = %d, the filter admits %d", path, st.Sampled, want)
				}
			}
		})
	}
}

// TestFixedSizeSampledMatchesDigests replays the recorded
// shards-fixedsize cases through Process and ProcessBatch: Sampled
// must equal the count recorded when the adapter mirrored the kernel's
// threshold test, including on a stream where the threshold drops.
func TestFixedSizeSampledMatchesDigests(t *testing.T) {
	traces := []struct {
		tr    *trace.Trace
		cases []digestCase
	}{
		{oracleTrace(t), krrDigests},
		{shrinkTrace(t), fixedSizeShrinkDigests},
	}
	var checked int
	for _, set := range traces {
		for _, c := range set.cases {
			if c.name != "shards-fixedsize" {
				continue
			}
			for path, drive := range streamDrivers {
				m, err := New(c.name, c.opts)
				if err != nil {
					t.Fatal(err)
				}
				drive(t, m, set.tr)
				if st := m.Stats(); st.Seen != c.seen || st.Sampled != c.sampled {
					t.Errorf("rate %v via %s: seen %d sampled %d, recorded %d and %d",
						c.opts.SamplingRate, path, st.Seen, st.Sampled, c.seen, c.sampled)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no recorded shards-fixedsize digests")
	}
}

// TestKernelFilterIsTheOnlyFilter: sampled aet and statstack and
// shards-fixedsize sample inside their kernels, which hash each key
// once and report the decision. The adapter must hold no filter of its
// own for them (which would hash the key a second time) and must count
// Sampled from the kernel's report.
func TestKernelFilterIsTheOnlyFilter(t *testing.T) {
	for _, name := range []string{"aet", "statstack", "shards-fixedsize"} {
		m, err := New(name, Options{Seed: 7, SamplingRate: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		sm, ok := m.(*streamModel)
		if !ok {
			t.Fatalf("%s: %T is not the stream adapter", name, m)
		}
		if sm.filter != nil || sm.process != nil || sm.sample == nil {
			t.Fatalf("%s: adapter filter %v, process set %v, kernel report set %v; want only the kernel report",
				name, sm.filter != nil, sm.process != nil, sm.sample != nil)
		}
	}
}

// TestConformanceBytes checks Snapshot's byte curve against CapBytes:
// nil without a byte mode (or without the capability), a monotone curve
// with one.
func TestConformanceBytes(t *testing.T) {
	tr := synthTrace(t, 5000, 500, 9)
	for _, info := range All() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			m, err := New(info.Name, Options{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			feed(t, m, tr)
			if c := m.Snapshot().Byte; c != nil {
				t.Fatalf("byte curve non-nil with BytesOff")
			}

			if !info.Caps.Has(CapBytes) {
				if _, err := New(info.Name, Options{Seed: 7, Bytes: BytesOn}); err == nil {
					t.Fatal("byte mode accepted without CapBytes")
				}
				return
			}
			mb, err := New(info.Name, Options{Seed: 7, Bytes: BytesOn})
			if err != nil {
				t.Fatal(err)
			}
			feed(t, mb, tr)
			c := mb.Snapshot().Byte
			if c == nil {
				t.Fatal("byte curve nil with BytesOn and CapBytes")
			}
			checkCurveShape(t, c, info.Name+"/bytes")
		})
	}
}

// deleteTraces builds a round of gets over ten keys, deletes of all
// ten, and a second round of gets — plus the same trace with the
// deletes stripped.
func deleteTraces() (withDel, without *trace.Trace) {
	withDel, without = &trace.Trace{}, &trace.Trace{}
	add := func(req trace.Request) {
		withDel.Append(req)
		if req.Op != trace.OpDelete {
			without.Append(req)
		}
	}
	for k := uint64(1); k <= 10; k++ {
		add(trace.Request{Key: k, Size: trace.DefaultObjectSize})
	}
	for k := uint64(1); k <= 10; k++ {
		add(trace.Request{Key: k, Op: trace.OpDelete})
	}
	for k := uint64(1); k <= 10; k++ {
		add(trace.Request{Key: k, Size: trace.DefaultObjectSize})
	}
	return withDel, without
}

// TestConformanceDeletes holds each entry to its CapDeletes flag:
// models without it must produce identical curves whether or not
// deletes appear; models with it must see the deleted keys' second
// round as cold misses (strictly higher miss ratio at large sizes).
// Sampling is disabled (rate 1) so a 30-request trace is fully
// observed.
func TestConformanceDeletes(t *testing.T) {
	withDel, without := deleteTraces()
	for _, info := range All() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			opts := Options{Seed: 7, SamplingRate: 1}
			cDel := buildCurve(t, info.Name, opts, withDel)
			cNo := buildCurve(t, info.Name, opts, without)
			const at = 1 << 30 // past every working-set size: steady-state miss ratio
			if info.Caps.Has(CapDeletes) {
				if cDel.Eval(at) <= cNo.Eval(at) {
					t.Fatalf("CapDeletes model ignored deletes: miss %v (with) vs %v (without)",
						cDel.Eval(at), cNo.Eval(at))
				}
			} else if !sameCurve(cDel, cNo) {
				t.Fatalf("model without CapDeletes changed its curve on deletes")
			}
		})
	}
}

// TestRegistryLookup covers alias resolution and the registry's
// validation surface.
func TestRegistryLookup(t *testing.T) {
	if info, ok := Lookup("lru"); !ok || info.Name != "olken" {
		t.Fatalf(`Lookup("lru") = %+v, %v; want olken`, info, ok)
	}
	if info, ok := Lookup("krr-backward"); !ok || info.Name != "krr" {
		t.Fatalf(`Lookup("krr-backward") = %+v, %v; want krr`, info, ok)
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup of unknown name succeeded")
	}
	if _, err := New("nope", Options{}); err == nil {
		t.Fatal("New of unknown name succeeded")
	}
	if _, err := New("krr", Options{SamplingRate: 2}); err == nil {
		t.Fatal("out-of-range sampling rate accepted")
	}
	if _, err := New("aet", Options{Workers: 4}); err == nil {
		t.Fatal("Workers > 1 accepted without CapSharded")
	}
	if _, err := New("krr-bucket", Options{BucketRatio: 0.5}); err == nil {
		t.Fatal("bucket ratio below 1 accepted")
	}
	if _, err := New("krr-bucket", Options{BucketRatio: 8}); err == nil {
		t.Fatal("bucket ratio above the maximum accepted")
	}
	if _, err := New("krr-bucket", Options{BucketRatio: 1.25}); err != nil {
		t.Fatalf("in-range bucket ratio rejected: %v", err)
	}
	names := Names()
	if len(names) != len(All()) {
		t.Fatalf("Names/All disagree: %d vs %d", len(names), len(All()))
	}
	for _, target := range []string{"klru", "lru", "lfu", "mru"} {
		if len(ByTarget(target)) == 0 {
			t.Fatalf("no models for target %q", target)
		}
	}
}
