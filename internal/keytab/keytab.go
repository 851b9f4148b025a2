// Package keytab is the repo's open-addressing key table: uint64 keys
// mapped to a non-zero value, the last-seen index of exact krr's stack
// (positions) and of aet's reuse-time monitor (clock readings). It
// replaces the built-in map on those hot paths: a lookup is an inlined
// hash and a scan of adjacent entries with no runtime call, and Swap
// finds and updates a key in one probe where a map takes a lookup and
// an assign.
//
// Invariants:
//   - capacity is a power of two; a key's home entry is Home: the top
//     log2(cap) bits of hashing.Mix64(key).
//   - an entry whose value is 0 is empty. Callers store only non-zero
//     values (1-based positions, a clock that starts at 1), so no
//     occupancy bitmap or key sentinel is needed (key 0 is a legal key).
//   - the table grows by doubling once an insert would pass 3/4 load.
//   - deletion backward-shifts displaced entries into the gap instead
//     of leaving tombstones, so probe runs never grow with delete
//     traffic and load stays == occupancy.
package keytab

import (
	"math/bits"
	"unsafe"

	"krr/internal/hashing"
)

// Home is the home entry of key in a table of 2^(64-shift) entries:
// the top bits of the SplitMix64 finalizer. It is also the home of
// core.BucketStack's key table, which keeps the scheme but not this
// type. It is not a multiplicative (fibonacci) home, key·2^64/φ,
// because the workload generators' keys are already rank·2^64/φ:
// multiplying again homes each at the top bits of rank·c for one fixed
// c, and those fall into long runs. On msr-web such a home made a
// krr-bucket lookup probe 43.6 entries on average (p99 116) at 57%
// load, and an exact-krr position lookup 39.1; Mix64 reads 1.59 and
// 2.25. Its top bits are independent of the low 24 the sampling filter
// tests, so sampled key sets spread too (core's
// TestKeyTableProbeLength holds every key family to linear probing's
// uniform-hash expectation).
func Home(key uint64, shift uint) uint64 { return hashing.Mix64(key) >> shift }

// minCap is a new table's capacity.
const minCap = 16

// Table maps uint64 keys to non-zero values of type V. The zero value
// is not usable; call New.
type Table[V int32 | uint64] struct {
	keys  []uint64
	vals  []V
	mask  uint64
	shift uint
	n     int
	max   int // grow threshold (3/4 load)
}

// New returns an empty table.
func New[V int32 | uint64]() *Table[V] {
	t := &Table[V]{}
	t.init(minCap)
	return t
}

func (t *Table[V]) init(capacity int) {
	t.keys = make([]uint64, capacity)
	t.vals = make([]V, capacity)
	t.mask = uint64(capacity - 1)
	t.shift = 64 - uint(bits.TrailingZeros(uint(capacity)))
	t.max = capacity - capacity>>2
	t.n = 0
}

// find returns key's entry and whether it is present; when absent, the
// entry is the empty one that ends its probe run.
func (t *Table[V]) find(key uint64) (uint64, bool) {
	i := Home(key, t.shift)
	for t.vals[i] != 0 {
		if t.keys[i] == key {
			return i, true
		}
		i = (i + 1) & t.mask
	}
	return i, false
}

// Len returns the number of stored keys.
func (t *Table[V]) Len() int { return t.n }

// Get returns the value stored for key, or 0 if absent.
func (t *Table[V]) Get(key uint64) V {
	i := Home(key, t.shift)
	for {
		v := t.vals[i]
		if v == 0 || t.keys[i] == key {
			return v
		}
		i = (i + 1) & t.mask
	}
}

// Put inserts or overwrites key's value (v must be non-zero).
func (t *Table[V]) Put(key uint64, v V) { t.Swap(key, v) }

// Swap stores v (non-zero) for key and returns the value it replaced,
// or 0 if key was absent and has been inserted. It probes once.
func (t *Table[V]) Swap(key uint64, v V) (old V) {
	i, ok := t.find(key)
	if ok {
		old, t.vals[i] = t.vals[i], v
		return old
	}
	if t.n >= t.max {
		t.grow()
		i, _ = t.find(key)
	}
	t.keys[i] = key
	t.vals[i] = v
	t.n++
	return 0
}

// Set overwrites the value of a key that is known to be present. It
// is the hot-loop variant for callers that rewrite keys they hold,
// such as the stack's cyclic shift.
func (t *Table[V]) Set(key uint64, v V) {
	i := Home(key, t.shift)
	for t.keys[i] != key || t.vals[i] == 0 {
		i = (i + 1) & t.mask
	}
	t.vals[i] = v
}

// Del removes key, backward-shifting the probe run so no tombstone
// remains. It reports whether the key was present.
func (t *Table[V]) Del(key uint64) bool {
	i, ok := t.find(key)
	if !ok {
		return false
	}
	// Backward-shift: walk the contiguous occupied run after the gap;
	// any entry whose home lies cyclically at or before the gap can
	// legally move into it, re-opening the gap further down the run.
	j := i
	for {
		j = (j + 1) & t.mask
		if t.vals[j] == 0 {
			break
		}
		h := Home(t.keys[j], t.shift)
		if (j-h)&t.mask >= (j-i)&t.mask {
			t.keys[i] = t.keys[j]
			t.vals[i] = t.vals[j]
			i = j
		}
	}
	t.vals[i] = 0
	t.n--
	return true
}

// grow doubles the table and rehashes every live entry.
func (t *Table[V]) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.init(len(oldKeys) * 2)
	for j, v := range oldVals {
		if v != 0 {
			i, _ := t.find(oldKeys[j])
			t.keys[i] = oldKeys[j]
			t.vals[i] = v
			t.n++
		}
	}
}

// Probes returns how many entries a lookup of key examines: its
// displacement from its home, plus one. When key is absent, that
// counts the run up to and including the empty entry that ends it.
// It is the probe-length diagnostic TestKeyTableProbeLength reads.
func (t *Table[V]) Probes(key uint64) int {
	i, _ := t.find(key)
	return int((i-Home(key, t.shift))&t.mask) + 1
}

// MemBytes returns the size of the table's backing arrays.
func (t *Table[V]) MemBytes() uint64 {
	var v V
	return uint64(len(t.keys)) * (8 + uint64(unsafe.Sizeof(v)))
}
