package core

import (
	"testing"
	"testing/quick"

	"krr/internal/xrand"
)

// TestPosIndexMatchesMap drives the index and a reference map through
// the same randomized put/overwrite/delete schedule and requires them
// to agree after every operation batch.
func TestPosIndexMatchesMap(t *testing.T) {
	err := quick.Check(func(ops []uint32) bool {
		ix := newPosIndex()
		ref := make(map[uint64]int32)
		for _, op := range ops {
			key := uint64(op % 512) // force collisions and reuse
			switch op % 3 {
			case 0, 1:
				pos := int32(op%1000) + 1
				ix.put(key, pos)
				ref[key] = pos
			case 2:
				got := ix.del(key)
				_, want := ref[key]
				if got != want {
					return false
				}
				delete(ref, key)
			}
		}
		if ix.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			if ix.get(k) != v {
				return false
			}
		}
		// Absent keys must read as 0.
		for probe := uint64(0); probe < 600; probe += 7 {
			if _, ok := ref[probe]; !ok && ix.get(probe) != 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPosIndexZeroKey checks that key 0 is a first-class key: slot
// emptiness is keyed on the value (positions are 1-based), not on a
// key sentinel.
func TestPosIndexZeroKey(t *testing.T) {
	ix := newPosIndex()
	if ix.get(0) != 0 {
		t.Fatal("empty index must miss key 0")
	}
	ix.put(0, 7)
	if ix.get(0) != 7 {
		t.Fatal("key 0 not stored")
	}
	ix.set(0, 9)
	if ix.get(0) != 9 {
		t.Fatal("key 0 not overwritten")
	}
	if !ix.del(0) || ix.del(0) {
		t.Fatal("key 0 delete broken")
	}
	if ix.get(0) != 0 || ix.Len() != 0 {
		t.Fatal("key 0 still present after delete")
	}
}

// TestPosIndexBackwardShift fills one probe cluster, deletes from its
// middle, and checks every survivor is still reachable — the property
// tombstone-free deletion must preserve.
func TestPosIndexBackwardShift(t *testing.T) {
	ix := newPosIndex()
	// Dense sequential keys: keyHome spreads them, and with enough
	// keys every cluster shape shows up.
	const n = 10_000
	for k := uint64(1); k <= n; k++ {
		ix.put(k, int32(k))
	}
	for k := uint64(2); k <= n; k += 3 {
		if !ix.del(k) {
			t.Fatalf("delete %d failed", k)
		}
	}
	for k := uint64(1); k <= n; k++ {
		want := int32(k)
		if k%3 == 2 {
			want = 0
		}
		if got := ix.get(k); got != want {
			t.Fatalf("get(%d) = %d, want %d", k, got, want)
		}
	}
}

// TestPosIndexGrowth checks rehashing retains every entry across many
// doublings.
func TestPosIndexGrowth(t *testing.T) {
	ix := newPosIndex()
	const n = 1 << 16
	for k := uint64(0); k < n; k++ {
		ix.put(k*0x9e3779b9, int32(k%1_000_000)+1)
	}
	if ix.Len() != n {
		t.Fatalf("Len = %d, want %d", ix.Len(), n)
	}
	for k := uint64(0); k < n; k++ {
		if got := ix.get(k * 0x9e3779b9); got != int32(k%1_000_000)+1 {
			t.Fatalf("get lost key %d: %d", k, got)
		}
	}
}

// --- micro-benchmarks pinning the hot-path claims --------------------

// benchKeys builds a realistic Zipf-less key mix: uniform keys over a
// working set, exercising hit-dominated lookups.
func benchKeys(n int, space uint64) []uint64 {
	src := xrand.New(99)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = src.Uint64n(space)
	}
	return keys
}

// BenchmarkPosIndex and BenchmarkBuiltinMap compare the index against
// map[uint64]int32 on the stack's actual access mix (lookup + position
// overwrite), isolating the open-addressing win claimed in the §5.6
// notes.
func BenchmarkPosIndex(b *testing.B) {
	keys := benchKeys(1<<16, 1<<15)
	ix := newPosIndex()
	for _, k := range keys {
		ix.put(k, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(1<<16-1)]
		p := ix.get(k)
		ix.put(k, p%1000+1)
	}
}

func BenchmarkBuiltinMap(b *testing.B) {
	keys := benchKeys(1<<16, 1<<15)
	m := make(map[uint64]int32)
	for _, k := range keys {
		m[k] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(1<<16-1)]
		p := m[k]
		m[k] = p%1000 + 1
	}
}

// BenchmarkReferenceColdInsert pins the cold-path cost: every key is
// new, so each Reference appends and performs exactly one index
// insert (the duplicate cold-path write was eliminated — position 1
// is written once by update, not pre-written at φ and overwritten).
func BenchmarkReferenceColdInsert(b *testing.B) {
	s := NewStack(KPrimeFor(8), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reference(uint64(i)+1, 1)
	}
}

// BenchmarkReferenceHot pins the serial Process hot path on a steady
// working set (the ≥15% serial improvement acceptance target rides on
// this plus the Table 5.1 benches).
func BenchmarkReferenceHot(b *testing.B) {
	const ws = 1 << 15
	keys := benchKeys(1<<16, ws)
	s := NewStack(KPrimeFor(8), 1)
	for k := uint64(0); k < ws; k++ {
		s.Reference(k, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reference(keys[i&(1<<16-1)], 1)
	}
}
