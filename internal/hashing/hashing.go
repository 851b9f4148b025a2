// Package hashing provides stable 64-bit hash functions for spatial
// sampling. Stability matters: the SHARDS-style sampling condition
// hash(L) mod P < T must select the same subset of keys on every run
// and in every process, so these functions are fixed algorithms with
// no per-process randomization (unlike hash/maphash).
package hashing

// Mix64 is the SplitMix64 finalizer (Stafford variant 13). It is a
// bijection on 64-bit integers with excellent avalanche behaviour,
// which makes it a good spatial-sampling hash for integer keys: every
// input bit flips each output bit with probability ~1/2.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Murmur3Fmix is the MurmurHash3 64-bit finalizer, kept as an
// independent second family for hash-quality cross checks.
func Murmur3Fmix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// FNV-1a parameters of String and Bytes. A parser that hashes a key
// while scanning it starts at FNVOffset, steps h = (h ^ c) * FNVPrime
// per byte and finishes with Mix64; the result equals Bytes of the
// same bytes.
const (
	FNVOffset = 14695981039346656037
	FNVPrime  = 1099511628211
)

// String hashes an arbitrary byte-string key with the FNV-1a core
// followed by a Mix64 finalization, for callers whose cache keys are
// strings rather than integers.
func String(s string) uint64 {
	h := uint64(FNVOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= FNVPrime
	}
	return Mix64(h)
}

// Bytes is String over a byte slice, for parsers that hold keys as
// sub-slices of an input buffer and must not allocate a string to hash
// them. Bytes(b) == String(string(b)) for every b.
func Bytes(b []byte) uint64 {
	h := uint64(FNVOffset)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= FNVPrime
	}
	return Mix64(h)
}
