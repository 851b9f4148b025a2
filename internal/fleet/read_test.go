package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"testing"

	"krr/internal/model"
	"krr/internal/mrc"
	"krr/internal/trace"
	"krr/internal/workload"
)

// sameBits reports whether two curves match bit for bit.
func sameBits(a, b *mrc.Curve) bool {
	if a == nil || b == nil {
		return a == b
	}
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

// encodeCurve is the bytes encoding/json writes for a curve — what
// /curve served before the streaming writer.
func encodeCurve(t *testing.T, c *mrc.Curve) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(c); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// ingestAll feeds reqs to a tenant in wire-sized batches.
func ingestAll(t *testing.T, r *Registry, id string, reqs []trace.Request) {
	t.Helper()
	for off := 0; off < len(reqs); off += 4096 {
		if err := r.IngestBatch(id, reqs[off:min(off+4096, len(reqs))]); err != nil {
			t.Fatal(err)
		}
	}
}

// readSpecs are the tenant specs the read path is pinned on: every
// registry model, plus the sharded and byte-mode variants its caps
// allow.
func readSpecs() []Spec {
	var specs []Spec
	for _, info := range model.All() {
		specs = append(specs, Spec{Model: info.Name, Options: model.Options{Seed: 5}})
		if info.Caps.Has(model.CapSharded) {
			specs = append(specs, Spec{Model: info.Name, Options: model.Options{Seed: 5, Workers: 2}})
		}
		if info.Caps.Has(model.CapBytes) {
			specs = append(specs, Spec{Model: info.Name, Options: model.Options{Seed: 5, Bytes: model.BytesOn}})
		}
	}
	return specs
}

// TestTenantReadMatchesModelSnapshot pins every tenant read against a
// snapshot of a separately built model fed the same requests — the
// curve the fleet served before reads moved out of the tenant lock:
// the built curve, evaluation at sizes, (downsampled) JSON bytes, and
// Tenant.Snapshot, for every registry model.
func TestTenantReadMatchesModelSnapshot(t *testing.T) {
	reqs := readAll(t, zipfTrace(3, 1500, 0, 12000))
	for _, spec := range readSpecs() {
		label := fmt.Sprintf("%s/w=%d/bytes=%v", spec.Model, spec.Options.Workers, spec.Options.Bytes)
		r := NewRegistry(Config{})
		if _, err := r.Create("t", spec); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		ingestAll(t, r, "t", reqs)
		ref, err := model.New(spec.Model, spec.Options)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.ProcessBatch(reqs); err != nil {
			t.Fatal(err)
		}
		want := ref.Snapshot()
		ref.Close()

		ten, _ := r.Get("t")
		snap := ten.Snapshot()
		if snap.Stats != want.Stats || !sameBits(snap.Object, want.Object) || !sameBits(snap.Byte, want.Byte) {
			t.Fatalf("%s: Tenant.Snapshot differs from the model's snapshot", label)
		}
		units := []bool{false}
		if want.Byte != nil {
			units = append(units, true)
		}
		for _, unitBytes := range units {
			wantCurve := want.Object
			if unitBytes {
				wantCurve = want.Byte
			}
			rd, err := r.Read("t", unitBytes)
			if err != nil {
				t.Fatalf("%s bytes=%v: %v", label, unitBytes, err)
			}
			if rd.Stats != want.Stats {
				t.Fatalf("%s bytes=%v: read stats %+v, want %+v", label, unitBytes, rd.Stats, want.Stats)
			}
			if !sameBits(rd.Curve(), wantCurve) {
				t.Fatalf("%s bytes=%v: read curve differs", label, unitBytes)
			}
			wss := wantCurve.WSS()
			for _, size := range []uint64{0, 1, 10, 100, 1000, wss / 2, wss, wss + 1} {
				if g, w := rd.Eval(size), wantCurve.Eval(size); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s bytes=%v: Eval(%d) = %v, want %v", label, unitBytes, size, g, w)
				}
			}
			for _, points := range []int{0, 2, 200} {
				var b bytes.Buffer
				if err := rd.WriteJSON(&b, points); err != nil {
					t.Fatal(err)
				}
				if w := encodeCurve(t, wantCurve.Downsample(points)); !bytes.Equal(b.Bytes(), w) {
					t.Fatalf("%s bytes=%v points=%d: JSON differs from the encoding/json bytes", label, unitBytes, points)
				}
			}
			rd.Release()
		}
		if want.Byte == nil {
			if _, err := r.Read("t", true); err != ErrNoByteCurve {
				t.Fatalf("%s: byte read of an object-only tenant: err %v, want ErrNoByteCurve", label, err)
			}
		}
		r.Evict("t")
	}
}

// TestTenantReadUnderIngest streams batches into a sharded tenant while
// other goroutines read, write and snapshot its curve; under -race it
// pins the histogram copy's locking and the pool's hand-offs.
func TestTenantReadUnderIngest(t *testing.T) {
	r := NewRegistry(Config{Default: Spec{Model: "krr-bucket", Options: model.Options{Seed: 2, Workers: 2}}})
	reqs := readAll(t, zipfTrace(8, 2000, 0, 150000))
	ingestAll(t, r, "s", reqs[:4096])
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rd, err := r.Read("s", false)
				if err != nil {
					t.Error(err)
					return
				}
				if m := rd.Eval(500); m < 0 || m > 1 {
					t.Errorf("miss ratio %v out of [0, 1]", m)
				}
				if err := rd.WriteJSON(io.Discard, 50); err != nil {
					t.Error(err)
				}
				rd.Release()
				if _, err := r.Snapshot("s"); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	ingestAll(t, r, "s", reqs[4096:])
	close(done)
	wg.Wait()
	ten, _ := r.Get("s")
	rd, _ := ten.Read(false)
	defer rd.Release()
	if rd.Stats.Seen != uint64(len(reqs)) {
		t.Fatalf("seen %d, want %d", rd.Stats.Seen, len(reqs))
	}
}

// msrWebTenant builds a registry holding one krr-bucket tenant (the
// benchmark's spec) fed n msr-web requests.
func msrWebTenant(t *testing.T, n int) *Tenant {
	t.Helper()
	p, ok := workload.ByName("msr-web")
	if !ok {
		t.Fatal("no msr-web preset")
	}
	reqs := readAll(t, trace.LimitReader(p.New(1.0, 1, false), n))
	r := NewRegistry(Config{})
	ten, err := r.Create("web", Spec{Model: "krr-bucket", Options: model.Options{K: 5, Seed: 1, BucketRatio: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, r, "web", reqs)
	return ten
}

// TestTenantMissRatioReadAllocFree guards the /mrc read: after warm-up
// a tenant miss-ratio read — histogram copy under the lock, walk,
// release — allocates nothing.
func TestTenantMissRatioReadAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; guarded in the plain build")
	}
	ten := msrWebTenant(t, 1<<16)
	allocs := testing.AllocsPerRun(50, func() {
		rd, _ := ten.Read(false)
		_ = rd.Eval(10_000)
		rd.Release()
	})
	if allocs != 0 {
		t.Fatalf("tenant miss-ratio read allocates %v objects per call, want 0", allocs)
	}
}

// TestFullCurveWriteAllocGuard guards the full /curve read: writing
// the whole curve of a 2^20-reference msr-web krr-bucket tenant must
// allocate under 256 KB in total. Building the curve and marshaling it
// with encoding/json allocated tens of MB for the same document.
func TestFullCurveWriteAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; guarded in the plain build")
	}
	const limit = 256 << 10
	ten := msrWebTenant(t, 1<<20)
	write := func() {
		rd, _ := ten.Read(false)
		if err := rd.WriteJSON(io.Discard, 0); err != nil {
			t.Fatal(err)
		}
		rd.Release()
	}
	write() // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	write()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc

	rd, _ := ten.Read(false)
	points := rd.Curve().Len()
	rd.Release()
	runtime.ReadMemStats(&before)
	snap := ten.Snapshot()
	if err := json.NewEncoder(io.Discard).Encode(snap.Object); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	t.Logf("%d breakpoints: streamed write %d B, built curve + encoding/json %d B",
		points, got, after.TotalAlloc-before.TotalAlloc)
	if points < 50_000 {
		t.Fatalf("only %d breakpoints: the guard needs a large curve", points)
	}
	if got >= limit {
		t.Fatalf("full curve write allocated %d B, want < %d", got, limit)
	}
}
