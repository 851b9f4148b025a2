// Package mimir implements the MIMIR bucketing scheme (Saemundsson et
// al., SoCC '14), the coarse-grained LRU stack of §6.1: the stack is
// divided into B aging buckets; objects within a bucket are unordered,
// so an access costs O(1) amortized and the stack distance is
// estimated as the total size of newer buckets plus half the object's
// own bucket. With B = 128 the paper reports near-exact MRCs.
package mimir

import (
	"krr/internal/histogram"
	"krr/internal/trace"
)

// DefaultBuckets is the bucket count MIMIR's authors recommend.
const DefaultBuckets = 128

// Stack is a MIMIR bucketed LRU stack.
type Stack struct {
	maxBuckets int

	// Buckets are identified by monotonically increasing ids; the
	// active window is [oldest, newest]. counts[i] is the population
	// of bucket oldest+i.
	oldest uint64
	counts []uint64

	pos  map[uint64]uint64 // key -> bucket id (may predate oldest; clamped)
	hist *histogram.Dense
}

// New returns a stack with the given bucket budget (<= 0 uses the
// default).
func New(buckets int) *Stack {
	if buckets <= 1 {
		buckets = DefaultBuckets
	}
	return &Stack{
		maxBuckets: buckets,
		counts:     []uint64{0},
		pos:        make(map[uint64]uint64),
		hist:       histogram.NewDense(1024),
	}
}

// newestID returns the id of the most recent bucket.
func (s *Stack) newestID() uint64 { return s.oldest + uint64(len(s.counts)) - 1 }

// clampID maps a possibly-stale bucket id into the active window
// (merged buckets collapse into the oldest).
func (s *Stack) clampID(id uint64) uint64 {
	if id < s.oldest {
		return s.oldest
	}
	return id
}

// Reference processes one access, returning the estimated stack
// distance and whether the reference was cold.
func (s *Stack) Reference(key uint64) (distance uint64, cold bool) {
	id, ok := s.pos[key]
	if ok {
		id = s.clampID(id)
		idx := int(id - s.oldest)
		// Distance: everything in newer buckets + half this bucket.
		var newer uint64
		for j := idx + 1; j < len(s.counts); j++ {
			newer += s.counts[j]
		}
		distance = newer + s.counts[idx]/2 + 1
		s.hist.Add(distance)
		s.counts[idx]--
	} else {
		cold = true
		s.hist.AddCold()
	}
	s.counts[len(s.counts)-1]++
	s.pos[key] = s.newestID()
	s.rotateIfNeeded()
	return distance, cold
}

// rotateIfNeeded opens a fresh bucket when the newest one exceeds its
// share (n/B) and merges the two oldest when the budget is exceeded.
func (s *Stack) rotateIfNeeded() {
	share := uint64(len(s.pos)/s.maxBuckets) + 1
	if s.counts[len(s.counts)-1] < share {
		return
	}
	s.counts = append(s.counts, 0)
	if len(s.counts) > s.maxBuckets {
		// Merge the two oldest: objects in bucket `oldest` flow into
		// `oldest+1` implicitly via clampID.
		s.counts[1] += s.counts[0]
		s.counts = s.counts[1:]
		s.oldest++
	}
}

// Delete removes key from the stack, returning residency.
func (s *Stack) Delete(key uint64) bool {
	id, ok := s.pos[key]
	if !ok {
		return false
	}
	idx := int(s.clampID(id) - s.oldest)
	s.counts[idx]--
	delete(s.pos, key)
	return true
}

// Process feeds one request.
func (s *Stack) Process(req trace.Request) {
	if req.Op == trace.OpDelete {
		s.Delete(req.Key)
		return
	}
	s.Reference(req.Key)
}

// Hist exposes the stack distance histogram.
func (s *Stack) Hist() *histogram.Dense { return s.hist }

// MemoryOverheadBytes estimates the stack's resident metadata: the
// position map, the bucket population array and the histogram.
func (s *Stack) MemoryOverheadBytes() uint64 {
	const perEntry = 48 // map entry: key + bucket id + bucket overhead
	return uint64(len(s.pos))*perEntry + uint64(cap(s.counts))*8 + s.hist.MemBytes()
}
