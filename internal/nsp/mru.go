package nsp

import (
	"krr/internal/histogram"
	"krr/internal/trace"
)

// MRUStack computes exact Mattson stack distances for MRU
// (evict-most-recently-used) replacement in O(1) per reference.
//
// MRU satisfies the inclusion property, but its Mattson stack is NOT
// the priority-sorted order Stack maintains: the just-referenced
// object is pinned on top even though it holds the *lowest* retention
// priority, and objects evicted long ago keep frozen recency
// priorities that can outrank current residents. Running Stack with
// the MRU policy therefore models a hypothetical perfect-history
// priority cache, not a real MRU cache (the differential harness in
// internal/difftest measures the gap at up to ~0.43 mean absolute
// error on loop traces).
//
// For MRU, Mattson's general update rule — the displaced stack top
// bubbles down past every entry it outranks — collapses to a
// constant-time transposition, because the old top outranks nothing:
//
//   - hit at depth d: the referenced object and the stack top swap
//     positions; every other object keeps its position,
//   - cold miss: the old top sinks to the stack bottom and the new
//     object takes the top.
//
// Positions are stable under both moves, so a plain position array
// plus a key index give O(1) per reference with no ordering structure
// at all.
type MRUStack struct {
	keys []uint64       // position (0-based) -> key
	pos  map[uint64]int // key -> position in keys
	hist *histogram.Dense
}

// NewMRU builds an exact MRU stack-distance model.
func NewMRU() *MRUStack {
	return &MRUStack{
		pos:  make(map[uint64]int),
		hist: histogram.NewDense(1024),
	}
}

// Reference processes one access and returns its MRU stack distance
// (1-based depth before the update; cold references have none).
func (s *MRUStack) Reference(key uint64) Result {
	if v, ok := s.pos[key]; ok {
		d := uint64(v) + 1
		if v != 0 {
			top := s.keys[0]
			s.keys[0], s.keys[v] = key, top
			s.pos[key], s.pos[top] = 0, v
		}
		s.hist.Add(d)
		return Result{Distance: d}
	}
	if len(s.keys) > 0 {
		top := s.keys[0]
		s.keys = append(s.keys, top)
		s.pos[top] = len(s.keys) - 1
		s.keys[0] = key
	} else {
		s.keys = append(s.keys, key)
	}
	s.pos[key] = 0
	s.hist.AddCold()
	return Result{Cold: true}
}

// Process feeds one request (deletes are unsupported by the stack
// model and ignored, as in Stack).
func (s *MRUStack) Process(req trace.Request) {
	if req.Op == trace.OpDelete {
		return
	}
	s.Reference(req.Key)
}

// Hist exposes the stack distance histogram.
func (s *MRUStack) Hist() *histogram.Dense { return s.hist }

// MemoryOverheadBytes estimates the model's resident metadata: the
// position array and index map plus the histogram.
func (s *MRUStack) MemoryOverheadBytes() uint64 {
	const perEntry = 48 // pos map entry
	return uint64(cap(s.keys))*8 + uint64(len(s.pos))*perEntry + s.hist.MemBytes()
}
