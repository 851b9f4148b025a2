package keytab

import (
	"fmt"
	"testing"

	"krr/internal/hashing"
	"krr/internal/xrand"
)

// homeBits is how many top bits of Mix64 the differential test's
// chosen keys fix: they keep one home in every table up to 2^homeBits
// entries, which the test's key pool never outgrows.
const homeBits = 12

// keysHomedAt returns n keys whose Mix64 has the given top homeBits
// bits, so they share the home top in every table of at most
// 2^homeBits entries.
func keysHomedAt(top uint64, n int) []uint64 {
	var keys []uint64
	for k := uint64(1); len(keys) < n; k++ {
		if hashing.Mix64(k)>>(64-homeBits) == top {
			keys = append(keys, k)
		}
	}
	return keys
}

// diffPool is the differential test's key pool: key 0, keys sharing
// one mid-table home, keys homed at the last entry (so their probe run
// wraps past it to entry 0), and small dense keys that fill the rest.
func diffPool() []uint64 {
	pool := []uint64{0}
	pool = append(pool, keysHomedAt(1<<(homeBits-1), 12)...)
	pool = append(pool, keysHomedAt(1<<homeBits-1, 12)...)
	for k := uint64(1); k <= 300; k++ {
		pool = append(pool, k)
	}
	return pool
}

// TestTableMatchesMap drives each instantiation and a Go map through
// the same random Put/Swap/Get/Set/Del schedule over diffPool and
// requires every result, and Len, to agree after each operation. The
// pool's dense keys make the table grow through several doublings with
// deletes (of present and absent keys) between them.
func TestTableMatchesMap(t *testing.T) {
	t.Run("int32", func(t *testing.T) { checkAgainstMap[int32](t) })
	t.Run("uint64", func(t *testing.T) { checkAgainstMap[uint64](t) })
}

func checkAgainstMap[V int32 | uint64](t *testing.T) {
	pool := diffPool()
	for seed := uint64(1); seed <= 20; seed++ {
		r := xrand.New(seed)
		tb := New[V]()
		ref := make(map[uint64]V)
		grows, delsBetween := 0, 0
		lastCap := tb.MemBytes()
		for step := 0; step < 4000; step++ {
			key := pool[r.Uint64n(uint64(len(pool)))]
			v := V(1 + r.Uint64n(1<<30))
			op := r.Uint64n(10)
			where := fmt.Sprintf("seed %d step %d key %d", seed, step, key)
			switch {
			case op < 3:
				tb.Put(key, v)
				ref[key] = v
			case op < 6:
				if got, want := tb.Swap(key, v), ref[key]; got != want {
					t.Fatalf("%s: Swap returned %d, want %d", where, got, want)
				}
				ref[key] = v
			case op < 7:
				if got, want := tb.Get(key), ref[key]; got != want {
					t.Fatalf("%s: Get = %d, want %d", where, got, want)
				}
			case op < 8:
				if _, ok := ref[key]; ok {
					tb.Set(key, v)
					ref[key] = v
				}
			default:
				_, want := ref[key]
				if got := tb.Del(key); got != want {
					t.Fatalf("%s: Del = %v, want %v", where, got, want)
				}
				delete(ref, key)
				if grows > 0 {
					delsBetween++
				}
			}
			if tb.Len() != len(ref) {
				t.Fatalf("%s: Len = %d, want %d", where, tb.Len(), len(ref))
			}
			if c := tb.MemBytes(); c != lastCap {
				grows++
				lastCap = c
			}
		}
		for _, key := range pool {
			if got, want := tb.Get(key), ref[key]; got != want {
				t.Fatalf("seed %d: final Get(%d) = %d, want %d", seed, key, got, want)
			}
		}
		if grows < 3 || delsBetween == 0 {
			t.Fatalf("seed %d: %d growths, %d deletes after the first; the schedule must interleave both", seed, grows, delsBetween)
		}
	}
}

// TestTableWrapsPastLastEntry checks the wrap-around keys of diffPool
// are real: in a table of minCap entries they all home at its last
// entry, so their run continues from entry 0.
func TestTableWrapsPastLastEntry(t *testing.T) {
	tb := New[uint64]()
	keys := keysHomedAt(1<<homeBits-1, 5)
	for i, k := range keys {
		tb.Put(k, uint64(i+1))
	}
	if got := Home(keys[0], tb.shift); got != tb.mask {
		t.Fatalf("wrap key homes at %d, want the last entry %d", got, tb.mask)
	}
	for i, k := range keys {
		if p := tb.Probes(k); p != i+1 {
			t.Fatalf("key %d found on probe %d, want %d", i, p, i+1)
		}
	}
	if !tb.Del(keys[0]) {
		t.Fatal("Del of the first wrap key failed")
	}
	for i, k := range keys[1:] {
		if got := tb.Get(k); got != uint64(i+2) {
			t.Fatalf("after Del, Get(key %d) = %d, want %d", i+1, got, i+2)
		}
		if p := tb.Probes(k); p != i+1 {
			t.Fatalf("after Del, key %d found on probe %d, want %d (backward shift)", i+1, p, i+1)
		}
	}
}

// TestTableZeroKey checks that key 0 is a first-class key: entry
// emptiness is keyed on the value (callers store non-zero values), not
// on a key sentinel.
func TestTableZeroKey(t *testing.T) {
	tb := New[int32]()
	if tb.Get(0) != 0 {
		t.Fatal("empty table must miss key 0")
	}
	tb.Put(0, 7)
	if tb.Get(0) != 7 {
		t.Fatal("key 0 not stored")
	}
	tb.Set(0, 9)
	if tb.Get(0) != 9 {
		t.Fatal("key 0 not overwritten")
	}
	if old := tb.Swap(0, 11); old != 9 || tb.Get(0) != 11 {
		t.Fatalf("Swap(0) returned %d, left %d; want 9, 11", old, tb.Get(0))
	}
	if !tb.Del(0) || tb.Del(0) {
		t.Fatal("key 0 delete broken")
	}
	if tb.Get(0) != 0 || tb.Len() != 0 {
		t.Fatal("key 0 still present after delete")
	}
	if old := tb.Swap(0, 3); old != 0 || tb.Get(0) != 3 || tb.Len() != 1 {
		t.Fatalf("Swap of absent key 0 returned %d, left %d with Len %d; want 0, 3, 1", old, tb.Get(0), tb.Len())
	}
}

// TestTableBackwardShift fills the table with dense keys, deletes
// every third, and checks every survivor is still reachable — the
// property tombstone-free deletion must preserve.
func TestTableBackwardShift(t *testing.T) {
	tb := New[int32]()
	// Dense sequential keys: Home spreads them, and with enough keys
	// every cluster shape shows up.
	const n = 10_000
	for k := uint64(1); k <= n; k++ {
		tb.Put(k, int32(k))
	}
	for k := uint64(2); k <= n; k += 3 {
		if !tb.Del(k) {
			t.Fatalf("delete %d failed", k)
		}
	}
	for k := uint64(1); k <= n; k++ {
		want := int32(k)
		if k%3 == 2 {
			want = 0
		}
		if got := tb.Get(k); got != want {
			t.Fatalf("Get(%d) = %d, want %d", k, got, want)
		}
	}
}

// TestTableGrowth checks rehashing retains every entry across many
// doublings.
func TestTableGrowth(t *testing.T) {
	tb := New[int32]()
	const n = 1 << 16
	for k := uint64(0); k < n; k++ {
		tb.Put(k*0x9e3779b9, int32(k%1_000_000)+1)
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	for k := uint64(0); k < n; k++ {
		if got := tb.Get(k * 0x9e3779b9); got != int32(k%1_000_000)+1 {
			t.Fatalf("Get lost key %d: %d", k, got)
		}
	}
}

// --- micro-benchmarks pinning the hot-path claims --------------------

// benchKeys returns n uniform keys over [0, space): hit-dominated
// lookups on a fixed working set.
func benchKeys(n int, space uint64) []uint64 {
	src := xrand.New(99)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = src.Uint64n(space)
	}
	return keys
}

// BenchmarkTable and BenchmarkBuiltinMap compare the table against
// map[uint64]int32 on exact krr's access mix (lookup + position
// overwrite), isolating the open-addressing win claimed in the §5.6
// notes.
func BenchmarkTable(b *testing.B) {
	keys := benchKeys(1<<16, 1<<15)
	tb := New[int32]()
	for _, k := range keys {
		tb.Put(k, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(1<<16-1)]
		p := tb.Get(k)
		tb.Put(k, p%1000+1)
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

// sinkU64 keeps the swap benchmarks' results live.
var sinkU64 uint64

// BenchmarkTableSwap and BenchmarkBuiltinMapSwap compare aet's
// last-seen access (read the previous clock, store the new one) as one
// Swap and as a map read plus assign.
func BenchmarkTableSwap(b *testing.B) {
	keys := benchKeys(1<<16, 1<<15)
	tb := New[uint64]()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += tb.Swap(keys[i&(1<<16-1)], uint64(i)+1)
	}
	sinkU64 = sum
}

func BenchmarkBuiltinMapSwap(b *testing.B) {
	keys := benchKeys(1<<16, 1<<15)
	m := make(map[uint64]uint64)
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		k := keys[i&(1<<16-1)]
		sum += m[k]
		m[k] = uint64(i) + 1
	}
	sinkU64 = sum
}
