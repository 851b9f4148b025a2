package olken

import (
	"testing"
	"testing/quick"

	"krr/internal/xrand"
)

// naiveLRU is a reference implementation: a plain slice ordered from
// most- to least-recently used.
type naiveLRU struct {
	keys  []uint64
	sizes []uint32
}

func (n *naiveLRU) reference(key uint64, size uint32) (cold bool, dist, byteDist uint64) {
	for i, k := range n.keys {
		if k == key {
			dist = uint64(i + 1)
			for j := 0; j <= i; j++ {
				byteDist += uint64(n.sizes[j])
			}
			copy(n.keys[1:i+1], n.keys[:i])
			copy(n.sizes[1:i+1], n.sizes[:i])
			n.keys[0], n.sizes[0] = key, size
			return false, dist, byteDist
		}
	}
	n.keys = append([]uint64{key}, n.keys...)
	n.sizes = append([]uint32{size}, n.sizes...)
	return true, 0, 0
}

func (n *naiveLRU) delete(key uint64) {
	for i, k := range n.keys {
		if k == key {
			n.keys = append(n.keys[:i], n.keys[i+1:]...)
			n.sizes = append(n.sizes[:i], n.sizes[i+1:]...)
			return
		}
	}
}

func TestAgainstNaiveLRU(t *testing.T) {
	s := New(1)
	var ref naiveLRU
	src := xrand.New(99)
	for i := 0; i < 20000; i++ {
		key := src.Uint64n(300)
		size := uint32(1 + src.Uint64n(100))
		if prev, ok := s.SizeOf(key); ok {
			size = prev // keep sizes stable so both models agree
		}
		wantCold, wantDist, wantByte := ref.reference(key, size)
		got := s.Reference(key, size)
		if got.Cold != wantCold {
			t.Fatalf("step %d key %d: cold=%v want %v", i, key, got.Cold, wantCold)
		}
		if !got.Cold && (got.Distance != wantDist || got.ByteDistance != wantByte) {
			t.Fatalf("step %d key %d: dist=%d/%d want %d/%d",
				i, key, got.Distance, got.ByteDistance, wantDist, wantByte)
		}
	}
}

func TestAgainstNaiveLRUWithDeletes(t *testing.T) {
	s := New(2)
	var ref naiveLRU
	src := xrand.New(7)
	for i := 0; i < 10000; i++ {
		key := src.Uint64n(100)
		if src.Float64() < 0.1 {
			ref.delete(key)
			s.Delete(key)
			continue
		}
		wantCold, wantDist, _ := ref.reference(key, 10)
		got := s.Reference(key, 10)
		if got.Cold != wantCold || (!got.Cold && got.Distance != wantDist) {
			t.Fatalf("step %d: mismatch after deletes", i)
		}
	}
}

func TestSequentialDistances(t *testing.T) {
	s := New(3)
	// Touch 1..5 then re-touch in reverse: distances 1..5... actually
	// touching 5,4,3,2,1 after 1,2,3,4,5 gives distances 1,2,3,4,5.
	for k := uint64(1); k <= 5; k++ {
		if got := s.Reference(k, 1); !got.Cold {
			t.Fatal("first touch must be cold")
		}
	}
	for i, k := range []uint64{5, 4, 3, 2, 1} {
		got := s.Reference(k, 1)
		if got.Cold || got.Distance != uint64(i+1) {
			t.Fatalf("key %d: dist %d want %d", k, got.Distance, i+1)
		}
	}
}

func TestImmediateReuseDistanceOne(t *testing.T) {
	s := New(4)
	s.Reference(42, 8)
	got := s.Reference(42, 8)
	if got.Cold || got.Distance != 1 || got.ByteDistance != 8 {
		t.Fatalf("immediate reuse: %+v", got)
	}
}

func TestByteDistanceInclusive(t *testing.T) {
	s := New(5)
	// Stack becomes (top) C(4) B(2) A(3).
	s.Reference('a', 3)
	s.Reference('b', 2)
	s.Reference('c', 4)
	got := s.Reference('a', 3)
	if got.Distance != 3 {
		t.Fatalf("distance %d want 3", got.Distance)
	}
	if got.ByteDistance != 9 { // 4+2+3 inclusive
		t.Fatalf("byte distance %d want 9", got.ByteDistance)
	}
}

func TestLenAndBytes(t *testing.T) {
	s := New(6)
	s.Reference(1, 10)
	s.Reference(2, 20)
	s.Reference(1, 10)
	if s.Len() != 2 || s.Bytes() != 30 {
		t.Fatalf("len=%d bytes=%d", s.Len(), s.Bytes())
	}
	s.Delete(1)
	if s.Len() != 1 || s.Bytes() != 20 {
		t.Fatalf("after delete: len=%d bytes=%d", s.Len(), s.Bytes())
	}
	if s.Delete(1) {
		t.Fatal("double delete must report false")
	}
}

func TestSizeUpdateOnReinsertion(t *testing.T) {
	s := New(7)
	s.Reference(1, 10)
	s.Reference(1, 25)
	if b := s.Bytes(); b != 25 {
		t.Fatalf("bytes = %d, want updated 25", b)
	}
	if sz, ok := s.SizeOf(1); !ok || sz != 25 {
		t.Fatalf("SizeOf = %d,%v", sz, ok)
	}
}

func TestContains(t *testing.T) {
	s := New(8)
	if s.Contains(5) {
		t.Fatal("empty stack contains nothing")
	}
	s.Reference(5, 1)
	if !s.Contains(5) {
		t.Fatal("missing after reference")
	}
}

func TestTreapInvariants(t *testing.T) {
	// Property: counts and byte sums remain consistent under random
	// mixed operations.
	err := quick.Check(func(ops []uint16) bool {
		s := New(11)
		resident := map[uint64]uint32{}
		for _, op := range ops {
			key := uint64(op % 64)
			if op%7 == 0 {
				s.Delete(key)
				delete(resident, key)
			} else {
				size := uint32(op%100) + 1
				s.Reference(key, size)
				resident[key] = size
			}
		}
		var wantBytes uint64
		for _, sz := range resident {
			wantBytes += uint64(sz)
		}
		return s.Len() == len(resident) && s.Bytes() == wantBytes
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReference(b *testing.B) {
	s := New(1)
	src := xrand.New(5)
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = src.Uint64n(1 << 20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reference(keys[i&(1<<16-1)], 200)
	}
}
