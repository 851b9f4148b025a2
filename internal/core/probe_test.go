package core

import (
	"fmt"
	"testing"

	"krr/internal/hashing"
	"krr/internal/sampling"
	"krr/internal/shardpipe"
	"krr/internal/trace"
	"krr/internal/workload"
)

// probeKeys is the number of distinct keys TestKeyTableProbeLength
// inserts per family: both tables grow from their minimum capacity to
// 2^16 entries and stop at 61% load, between the 3/8 a doubling leaves
// and the 3/4 that triggers the next one.
const probeKeys = 40_000

// Bounds of TestKeyTableProbeLength. maxMeanProbes is linear probing's
// expected successful probe count at the tables' 3/4 growth threshold,
// (1 + 1/(1-α))/2 with α = 3/4; a uniform home reads about 1.8 at the
// test's 61% load. maxProbes bounds the longest single lookup; a
// uniform home's longest run at this load and size is a few dozen.
const (
	maxMeanProbes = 2.5
	maxProbes     = 128
)

// presetKeys returns the first n distinct keys of a workload preset's
// trace at full scale, in order of first reference.
func presetKeys(t *testing.T, name string, n int) []uint64 {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown preset %q", name)
	}
	r := p.New(1, 1, false)
	seen := make(map[uint64]struct{}, n)
	keys := make([]uint64, 0, n)
	for reqs := 0; len(keys) < n; reqs++ {
		req, err := r.Next()
		if err != nil || reqs == 1<<24 {
			t.Fatalf("%s: %d distinct keys after %d requests (err %v), want %d", name, len(keys), reqs, err, n)
		}
		if _, dup := seen[req.Key]; dup {
			continue
		}
		seen[req.Key] = struct{}{}
		keys = append(keys, req.Key)
	}
	return keys
}

// sequentialKeys returns n distinct keys k·stride, k = 0, 1, ... that
// pass keep.
func sequentialKeys(n int, stride uint64, keep func(uint64) bool) []uint64 {
	keys := make([]uint64, 0, n)
	for k := uint64(0); len(keys) < n; k++ {
		if key := k * stride; keep(key) {
			keys = append(keys, key)
		}
	}
	return keys
}

// probeStats returns the mean and longest successful probe count over
// a table's live entries: the key at entry i homed at h is found on
// probe ((i-h) & mask) + 1. Linear probing's total displacement does
// not depend on insertion order, so neither does the mean.
func probeStats(keys []uint64, live func(i int) bool, mask uint64, shift uint) (mean float64, longest uint64) {
	var sum, n uint64
	for i, key := range keys {
		if !live(i) {
			continue
		}
		probes := (uint64(i)-keyHome(key, shift))&mask + 1
		sum += probes
		n++
		longest = max(longest, probes)
	}
	return float64(sum) / float64(n), longest
}

// TestKeyTableProbeLength holds both open-addressing key tables —
// posIndex (exact krr) and BucketStack's (krr-bucket) — to linear
// probing's uniform-hash probe lengths on every key family the repo
// feeds them: the workload generators' rank·2^64/φ keys, dense and
// strided integers, hashed string keys, the keys a spatial sampling
// filter admits (whose Mix64 low bits are constrained) and one shard
// of a 4-way shardpipe routing. A multiplicative home, key·2^64/φ,
// fails it on the preset families, at a mean of 8–17 probes per
// resident key (9–44 per reference on their own traces).
func TestKeyTableProbeLength(t *testing.T) {
	all := func(uint64) bool { return true }
	filter := sampling.NewRate(0.1)
	pipe := shardpipe.New(4, func(int, []trace.Request) {})
	defer pipe.Close()
	families := []struct {
		name string
		keys func() []uint64
	}{
		{"preset msr-web", func() []uint64 { return presetKeys(t, "msr-web", probeKeys) }},
		{"preset tw-34.1", func() []uint64 { return presetKeys(t, "tw-34.1", probeKeys) }},
		{"preset zipf", func() []uint64 { return presetKeys(t, "zipf", probeKeys) }},
		{"sequential", func() []uint64 { return sequentialKeys(probeKeys, 1, all) }},
		{"multiples of 4096", func() []uint64 { return sequentialKeys(probeKeys, 4096, all) }},
		{"user:<n> strings", func() []uint64 {
			keys := make([]uint64, probeKeys)
			for i := range keys {
				keys[i] = hashing.String(fmt.Sprintf("user:%d", i))
			}
			return keys
		}},
		{"sampled at rate 0.1", func() []uint64 { return sequentialKeys(probeKeys, 1, filter.Sampled) }},
		{"shard 0 of 4", func() []uint64 {
			return sequentialKeys(probeKeys, 1, func(k uint64) bool { return pipe.ShardOf(k) == 0 })
		}},
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			keys := f.keys()

			ix := newPosIndex()
			for i, k := range keys {
				ix.put(k, int32(i+1))
			}
			s := NewBucketStack(KPrimeFor(5), DefaultBucketRatio, 1)
			for _, k := range keys {
				s.Reference(k, 1)
			}
			if ix.Len() != len(keys) || s.Len() != len(keys) {
				t.Fatalf("tables hold %d and %d keys, want %d distinct", ix.Len(), s.Len(), len(keys))
			}

			tables := []struct {
				name  string
				keys  []uint64
				live  func(int) bool
				mask  uint64
				shift uint
			}{
				{"posIndex", ix.keys, func(i int) bool { return ix.vals[i] != 0 }, ix.mask, ix.shift},
				{"BucketStack", s.tkeys, func(i int) bool { return s.tpos[i] != 0 }, s.mask, s.shift},
			}
			for _, tb := range tables {
				mean, longest := probeStats(tb.keys, tb.live, tb.mask, tb.shift)
				load := float64(len(keys)) / float64(tb.mask+1)
				t.Logf("%s: %d keys at load %.2f, mean %.2f probes, longest %d", tb.name, len(keys), load, mean, longest)
				if mean > maxMeanProbes || longest > maxProbes {
					t.Errorf("%s: mean %.2f probes (bound %.1f), longest %d (bound %d) at load %.2f",
						tb.name, mean, maxMeanProbes, longest, maxProbes, load)
				}
			}
		})
	}
}
