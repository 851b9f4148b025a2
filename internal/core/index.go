package core

import "krr/internal/hashing"

// posIndex is the stack's key→position hash index: an open-addressing
// table mapping uint64 keys to 1-based int32 stack positions. It
// replaces the built-in map on the profiler hot path — every Reference
// performs one lookup plus O(K log M) position writes, and a flat
// linear-probe table beats map[uint64]int32 on both by avoiding bucket
// chaining, per-bucket tophash scans and write barriers.
//
// Invariants:
//   - capacity is a power of two; home slot is keyHome: the top
//     log2(cap) bits of hashing.Mix64(key).
//   - a slot with vals[i] == 0 is empty. Stack positions are 1-based,
//     so 0 never collides with a stored value and no separate occupancy
//     bitmap or key sentinel is needed (key 0 is a legal key).
//   - deletion backward-shifts displaced entries into the gap instead
//     of leaving tombstones, so probe sequences never grow with delete
//     traffic and load stays == occupancy.
type posIndex struct {
	keys  []uint64
	vals  []int32
	mask  uint64
	shift uint
	n     int
	max   int // grow threshold (3/4 load)
}

// keyHome is the home entry of key in a table of 2^(64-shift) entries,
// shared by posIndex and BucketStack's key table: the top bits of the
// SplitMix64 finalizer. It is not a multiplicative (fibonacci) home,
// key·2^64/φ, because the workload generators' keys are already
// rank·2^64/φ: multiplying again homes each at the top bits of rank·c
// for one fixed c, and those fall into long runs. On msr-web such a
// home made a krr-bucket lookup probe 43.6 entries on average (p99
// 116) at 57% load, and a posIndex lookup under exact krr 39.1; Mix64
// reads 1.59 and 2.25. Its top bits are independent of the low 24 the
// sampling filter tests, so sampled key sets spread too
// (TestKeyTableProbeLength holds every key family to linear probing's
// uniform-hash expectation).
func keyHome(key uint64, shift uint) uint64 { return hashing.Mix64(key) >> shift }

const posIndexMinCap = 16

func newPosIndex() *posIndex {
	ix := &posIndex{}
	ix.init(posIndexMinCap)
	return ix
}

func (ix *posIndex) init(capacity int) {
	ix.keys = make([]uint64, capacity)
	ix.vals = make([]int32, capacity)
	ix.mask = uint64(capacity - 1)
	ix.shift = 64 - uint(log2Ceil(capacity))
	ix.max = capacity - capacity>>2
	ix.n = 0
}

// log2Ceil returns ceil(log2(v)) for v >= 1 (v is a power of two here,
// so it is exact).
func log2Ceil(v int) int {
	n := 0
	for 1<<n < v {
		n++
	}
	return n
}

func (ix *posIndex) home(key uint64) uint64 { return keyHome(key, ix.shift) }

// Len returns the number of stored keys.
func (ix *posIndex) Len() int { return ix.n }

// get returns the position stored for key, or 0 if absent.
func (ix *posIndex) get(key uint64) int32 {
	i := ix.home(key)
	for {
		v := ix.vals[i]
		if v == 0 {
			return 0
		}
		if ix.keys[i] == key {
			return v
		}
		i = (i + 1) & ix.mask
	}
}

// put inserts or overwrites key's position (pos must be >= 1).
func (ix *posIndex) put(key uint64, pos int32) {
	i := ix.home(key)
	for {
		v := ix.vals[i]
		if v == 0 {
			if ix.n >= ix.max {
				ix.grow()
				ix.put(key, pos)
				return
			}
			ix.keys[i] = key
			ix.vals[i] = pos
			ix.n++
			return
		}
		if ix.keys[i] == key {
			ix.vals[i] = pos
			return
		}
		i = (i + 1) & ix.mask
	}
}

// set overwrites the position of a key that is known to be present.
// It is the hot-loop variant used by the stack's cyclic shift, where
// every touched key is already indexed.
func (ix *posIndex) set(key uint64, pos int32) {
	i := ix.home(key)
	for ix.keys[i] != key || ix.vals[i] == 0 {
		i = (i + 1) & ix.mask
	}
	ix.vals[i] = pos
}

// del removes key, backward-shifting the probe chain so no tombstone
// remains. It reports whether the key was present.
func (ix *posIndex) del(key uint64) bool {
	i := ix.home(key)
	for {
		if ix.vals[i] == 0 {
			return false
		}
		if ix.keys[i] == key {
			break
		}
		i = (i + 1) & ix.mask
	}
	// Backward-shift: walk the contiguous occupied run after the gap;
	// any entry whose home lies cyclically at or before the gap can
	// legally move into it, re-opening the gap further down the run.
	j := i
	for {
		j = (j + 1) & ix.mask
		if ix.vals[j] == 0 {
			break
		}
		h := ix.home(ix.keys[j])
		if (j-h)&ix.mask >= (j-i)&ix.mask {
			ix.keys[i] = ix.keys[j]
			ix.vals[i] = ix.vals[j]
			i = j
		}
	}
	ix.vals[i] = 0
	ix.n--
	return true
}

// grow doubles the table and rehashes every live entry.
func (ix *posIndex) grow() {
	oldKeys, oldVals := ix.keys, ix.vals
	ix.init(len(oldKeys) * 2)
	for i, v := range oldVals {
		if v != 0 {
			ix.put(oldKeys[i], v)
		}
	}
}

// memBytes returns the resident size of the table's backing arrays,
// for the §5.6 metadata accounting.
func (ix *posIndex) memBytes() uint64 {
	return uint64(len(ix.keys)) * (8 + 4)
}
