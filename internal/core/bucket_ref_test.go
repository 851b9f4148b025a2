package core

import (
	"math"
	"math/bits"
	"testing"

	"krr/internal/keytab"
	"krr/internal/xrand"
)

// refBucketStack is the slot-arena BucketStack the key-table layout
// replaced, kept verbatim in behaviour as a test-only reference: keys
// in a slot-indexed arena with a free list, key → slot in a separate
// keytab.Table, slot → position in pos. Only the storage differs from
// BucketStack; the bucket geometry, draw sequence and every position
// write are the same, so the two must agree reference for reference.
type refBucketStack struct {
	kPrime, ratio float64
	draws         drawBatch

	keys  []uint64
	pos   []int32
	free  []int32
	order []int32
	index *keytab.Table[int32]

	buckets []bucketSpan

	moves, updates uint64
}

func newRefBucketStack(kPrime, ratio float64, seed uint64) *refBucketStack {
	return &refBucketStack{
		kPrime: kPrime,
		ratio:  ratio,
		draws:  newDrawBatch(xrand.New(seed)),
		keys:   make([]uint64, 1),
		pos:    make([]int32, 1),
		order:  make([]int32, 1),
		index:  keytab.New[int32](),
	}
}

func (s *refBucketStack) Len() int { return len(s.order) - 1 }

func (s *refBucketStack) bucketOf(p int32) int {
	lo, hi := 0, len(s.buckets)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.buckets[mid].end < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (s *refBucketStack) newSpan(idx int) bucketSpan {
	var start int32 = 1
	if idx > 0 {
		start = s.buckets[idx-1].end + 1
	}
	width := int32(math.Round(math.Pow(s.ratio, float64(idx))))
	if width < 1 {
		width = 1
	}
	sp := bucketSpan{start: start, end: start + width - 1, scale: float64(width)}
	if start > 1 {
		sp.pNoSwap = math.Pow(float64(start-1)/float64(sp.end), s.kPrime)
		sp.scale = float64(width) / (1 - sp.pNoSwap)
	}
	return sp
}

func (s *refBucketStack) allocSlot(key uint64) int32 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		s.keys[slot] = key
		return slot
	}
	s.keys = append(s.keys, key)
	s.pos = append(s.pos, 0)
	return int32(len(s.keys) - 1)
}

func (s *refBucketStack) Reference(key uint64) Result {
	slot := s.index.Get(key)
	var res Result
	var p int32
	if slot == 0 {
		slot = s.allocSlot(key)
		s.order = append(s.order, slot)
		p = int32(len(s.order) - 1)
		s.pos[slot] = p
		if nb := len(s.buckets); nb == 0 || p > s.buckets[nb-1].end {
			s.buckets = append(s.buckets, s.newSpan(nb))
		}
		s.index.Put(key, slot)
		res.Cold = true
	} else {
		p = s.pos[slot]
		res.Distance = uint64(p)
	}
	s.updates++
	b := s.bucketOf(p)
	if b == 0 {
		return res
	}
	hole := p
	for j := b - 1; j >= 1; j-- {
		bk := s.buckets[j]
		u := s.draws.next()
		if u <= bk.pNoSwap {
			continue
		}
		q := bk.start + int32((u-bk.pNoSwap)*bk.scale)
		if q > bk.end {
			q = bk.end
		}
		v := s.order[q]
		s.order[hole] = v
		s.pos[v] = hole
		hole = q
		s.moves++
	}
	v := s.order[1]
	s.order[hole] = v
	s.pos[v] = hole
	s.order[1] = slot
	s.pos[slot] = 1
	s.moves++
	return res
}

func (s *refBucketStack) Delete(key uint64) bool {
	slot := s.index.Get(key)
	if slot == 0 {
		return false
	}
	p := s.pos[slot]
	n := int32(len(s.order) - 1)
	last := s.bucketOf(n)
	hole := p
	for j := s.bucketOf(p); j < last; j++ {
		bk := s.buckets[j+1]
		hi := bk.end
		if hi > n {
			hi = n
		}
		q := bk.start + int32(s.draws.next()*float64(hi-bk.start+1))
		if q > hi {
			q = hi
		}
		v := s.order[q]
		s.order[hole] = v
		s.pos[v] = hole
		hole = q
	}
	if hole != n {
		v := s.order[n]
		s.order[hole] = v
		s.pos[v] = hole
	}
	s.order = s.order[:n]
	for len(s.buckets) > 0 && s.buckets[len(s.buckets)-1].start > n-1 {
		s.buckets = s.buckets[:len(s.buckets)-1]
	}
	s.pos[slot] = 0
	s.free = append(s.free, slot)
	s.index.Del(key)
	return true
}

// at returns the key at 1-based position i.
func (s *refBucketStack) at(i int) uint64 { return s.keys[s.order[i]] }

// compareBucketStacks runs one operation stream through both stacks,
// failing on the first Result, Delete outcome or counter that differs,
// then checks the final stack orders match position for position. It
// returns the key-table stack for further checks.
func compareBucketStacks(t *testing.T, label string, ratio float64, ops func(yield func(key uint64, del bool))) *BucketStack {
	t.Helper()
	got := NewBucketStack(KPrimeFor(5), ratio, 17)
	want := newRefBucketStack(KPrimeFor(5), ratio, 17)
	i := 0
	ops(func(key uint64, del bool) {
		if t.Failed() {
			return
		}
		if del {
			if g, w := got.Delete(key), want.Delete(key); g != w {
				t.Errorf("%s: op %d Delete(%#x) = %v, reference %v", label, i, key, g, w)
			}
		} else if g, w := got.Reference(key, 1), want.Reference(key); g != w {
			t.Errorf("%s: op %d Reference(%#x) = %+v, reference %+v", label, i, key, g, w)
		}
		i++
	})
	if t.Failed() {
		t.FailNow()
	}
	if got.Moves() != want.moves || got.Updates() != want.updates || got.Len() != want.Len() {
		t.Fatalf("%s: moves/updates/len = %d/%d/%d, reference %d/%d/%d", label,
			got.Moves(), got.Updates(), got.Len(), want.moves, want.updates, want.Len())
	}
	for p := 1; p <= got.Len(); p++ {
		if got.At(p) != want.at(p) {
			t.Fatalf("%s: At(%d) = %#x, reference %#x", label, p, got.At(p), want.at(p))
		}
	}
	checkBucketInvariants(t, got)
	return got
}

// TestBucketStackMatchesArenaReference pins the key-table BucketStack
// to the slot-arena original under churn: per-reference Results,
// Delete outcomes, final Moves/Updates/Len and the full stack order
// must all be identical, at every legal ratio class.
func TestBucketStackMatchesArenaReference(t *testing.T) {
	for _, ratio := range []float64{1, 1.5, 2, 4} {
		// Mixed references and deletes over a small key space that
		// includes key 0 (the table's empty marker is tpos == 0, not
		// a key sentinel).
		compareBucketStacks(t, "churn", ratio, func(yield func(uint64, bool)) {
			r := xrand.New(uint64(ratio * 100))
			for i := 0; i < 20000; i++ {
				key := r.Uint64() % 600
				yield(key, r.Uint64()%8 == 0)
			}
			for key := uint64(0); key < 600; key += 3 {
				yield(key, true)
			}
		})
		// Growth: 40k distinct keys take the table from 16 entries
		// through 12 doublings, with deletes and re-references
		// interleaved so relocation hits live, moved entries.
		grown := compareBucketStacks(t, "growth", ratio, func(yield func(uint64, bool)) {
			r := xrand.New(5)
			keys := make([]uint64, 0, 3000)
			for i := 0; i < 3000; i++ {
				keys = append(keys, r.Uint64())
				yield(keys[i], false)
				if i%5 == 0 {
					yield(keys[r.Uint64()%uint64(len(keys))], r.Uint64()%2 == 0)
				}
			}
		})
		if len(grown.tkeys) < bucketTableMinCap<<4 {
			t.Fatalf("growth case ended at %d table entries, want >= 4 doublings", len(grown.tkeys))
		}
		// Wrap-around: keys whose home is the last entries of the
		// table, so probe runs wrap to entry 0 and deletes
		// backward-shift across the boundary. The stream ends on
		// references to all ten keys, so they fill one run from the
		// last two entries through entry 0 to entry 7.
		keys := wrapKeys(bucketTableMinCap, 10)
		wrapped := compareBucketStacks(t, "wrap", ratio, func(yield func(uint64, bool)) {
			r := xrand.New(9)
			for i := 0; i < 5000; i++ {
				yield(keys[r.Uint64()%uint64(len(keys))], r.Uint64()%3 == 0)
			}
			for _, k := range keys {
				yield(k, false)
			}
		})
		if n := wrappedEntries(wrapped); len(wrapped.tkeys) != bucketTableMinCap || wrapped.tpos[0] == 0 || n != len(keys)-2 {
			t.Fatalf("wrap case (ratio %g): table at %d entries, entry 0 occupied = %v, %d entries past the end; want %d entries with a run wrapped through entry 0 and %d past the end",
				ratio, len(wrapped.tkeys), wrapped.tpos[0] != 0, n, bucketTableMinCap, len(keys)-2)
		}
	}
}

// wrapKeys returns n keys whose keytab.Home in a table of the given
// capacity is one of its last two entries.
func wrapKeys(capacity, n int) []uint64 {
	shift := 64 - uint(bits.TrailingZeros(uint(capacity)))
	var keys []uint64
	for k := uint64(0); len(keys) < n; k++ {
		if int(keytab.Home(k, shift)) >= capacity-2 {
			keys = append(keys, k)
		}
	}
	return keys
}

// wrappedEntries counts the live entries whose probe run crossed the
// table's end: each sits below its home, with every entry from the home
// to the end and from entry 0 up to it occupied.
func wrappedEntries(s *BucketStack) int {
	n := 0
	for i, p := range s.tpos {
		if p != 0 && s.home(s.tkeys[i]) > uint64(i) {
			n++
		}
	}
	return n
}

// TestBucketStackWrapAroundDelete checks the wrap-around case is real:
// with the table at its minimum size, the wrapKeys population occupies
// entry 0 through a run that started at the table's end, and deleting
// the run's head leaves every survivor reachable.
func TestBucketStackWrapAroundDelete(t *testing.T) {
	s := NewBucketStack(KPrimeFor(5), 2, 1)
	keys := wrapKeys(len(s.tkeys), 6)
	for _, k := range keys {
		s.Reference(k, 1)
	}
	if len(s.tkeys) != bucketTableMinCap {
		t.Fatalf("table grew to %d entries with %d keys", len(s.tkeys), len(keys))
	}
	if s.tpos[0] == 0 || wrappedEntries(s) == 0 {
		t.Fatal("no probe run wrapped into entry 0")
	}
	for _, k := range keys[:3] {
		if !s.Delete(k) {
			t.Fatalf("Delete(%#x) = false for a resident key", k)
		}
		checkBucketInvariants(t, s)
	}
	for _, k := range keys[3:] {
		if s.PositionOf(k) == 0 {
			t.Fatalf("key %#x lost after wrap-around deletes", k)
		}
	}
}
