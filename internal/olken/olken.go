// Package olken implements the classical exact-LRU stack-distance
// structure: Olken's balanced-tree formulation of Mattson's LRU stack
// (§2.1, §5.1). The stack is a treap keyed by last-access time and
// augmented with subtree object counts and subtree byte sums, so one
// reference costs O(log M) and yields both the object-granularity and
// the byte-granularity (inclusive) stack distance.
//
// This is the repository's ground-truth oracle for exact LRU, the
// baseline the paper compares against, and the substrate for SHARDS.
// The package exports the stack alone: the olken and shards models in
// internal/model own the filter, counters, histograms and curves.
package olken

import "krr/internal/xrand"

type node struct {
	time   uint64 // last-access logical time; unique tree key
	objKey uint64
	size   uint32
	prio   uint64 // treap heap priority
	left   *node
	right  *node
	cnt    uint64 // subtree object count
	bytes  uint64 // subtree byte sum
}

func cnt(n *node) uint64 {
	if n == nil {
		return 0
	}
	return n.cnt
}

func bytesOf(n *node) uint64 {
	if n == nil {
		return 0
	}
	return n.bytes
}

func (n *node) pull() {
	n.cnt = 1 + cnt(n.left) + cnt(n.right)
	n.bytes = uint64(n.size) + bytesOf(n.left) + bytesOf(n.right)
}

// merge joins two treaps where every time in a precedes every time in b.
func merge(a, b *node) *node {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.prio >= b.prio {
		a.right = merge(a.right, b)
		a.pull()
		return a
	}
	b.left = merge(a, b.left)
	b.pull()
	return b
}

// split divides t into (times <= key, times > key).
func split(t *node, key uint64) (lo, hi *node) {
	if t == nil {
		return nil, nil
	}
	if t.time <= key {
		l, h := split(t.right, key)
		t.right = l
		t.pull()
		return t, h
	}
	l, h := split(t.left, key)
	t.left = h
	t.pull()
	return l, t
}

// Stack is an exact LRU stack with O(log M) reference cost.
type Stack struct {
	root  *node
	index map[uint64]*node
	clock uint64
	rng   *xrand.Source
}

// New returns an empty stack; seed fixes the treap priorities.
func New(seed uint64) *Stack {
	return &Stack{index: make(map[uint64]*node), rng: xrand.New(seed)}
}

// Len returns the number of resident objects (distinct referenced keys).
func (s *Stack) Len() int { return int(cnt(s.root)) }

// Bytes returns the total byte size of resident objects.
func (s *Stack) Bytes() uint64 { return bytesOf(s.root) }

// Result reports the distances of one reference.
type Result struct {
	// Cold is true for a first-touch reference; distances are then
	// undefined (infinite).
	Cold bool
	// Distance is the LRU stack distance in objects (top = 1).
	Distance uint64
	// ByteDistance is the inclusive byte-granularity distance: the
	// total size of stack positions 1..Distance. A cache with byte
	// capacity >= ByteDistance hits this reference.
	ByteDistance uint64
}

// Reference records an access to key with the given size and returns
// its distances. The object moves to the stack top; a previously
// unseen key is inserted cold. If the object's size changed since its
// last reference the new size takes effect at reinsertion.
func (s *Stack) Reference(key uint64, size uint32) Result {
	s.clock++
	n, ok := s.index[key]
	if !ok {
		s.insertTop(key, size)
		return Result{Cold: true}
	}
	dist, byteDist := s.rankOf(n.time, uint64(n.size))
	s.removeTime(n.time)
	delete(s.index, key)
	s.insertTop(key, size)
	return Result{Distance: dist, ByteDistance: byteDist}
}

// rankOf computes the number of objects with time >= t (the stack
// distance) and the byte sum of objects with time > t plus own, by one
// root-to-node descent.
func (s *Stack) rankOf(t uint64, ownSize uint64) (dist, byteDist uint64) {
	n := s.root
	var above, bytesAbove uint64
	for n != nil {
		switch {
		case t < n.time:
			above += 1 + cnt(n.right)
			bytesAbove += uint64(n.size) + bytesOf(n.right)
			n = n.left
		case t > n.time:
			n = n.right
		default:
			above += cnt(n.right)
			bytesAbove += bytesOf(n.right)
			return above + 1, bytesAbove + ownSize
		}
	}
	// Unreachable for times present in the tree.
	return above + 1, bytesAbove + ownSize
}

func (s *Stack) insertTop(key uint64, size uint32) {
	n := &node{time: s.clock, objKey: key, size: size, prio: s.rng.Uint64()}
	n.pull()
	// The new time is the global maximum, so it merges on the right.
	s.root = merge(s.root, n)
	s.index[key] = n
}

func (s *Stack) removeTime(t uint64) {
	lo, hi := split(s.root, t)
	// lo's maximum time is t; peel it off.
	lo2, target := split(lo, t-1)
	_ = target // single node with time t; discard
	s.root = merge(lo2, hi)
}

// Delete removes key from the stack if present, returning whether it
// was resident.
func (s *Stack) Delete(key uint64) bool {
	n, ok := s.index[key]
	if !ok {
		return false
	}
	s.removeTime(n.time)
	delete(s.index, key)
	return true
}

// MemoryOverheadBytes estimates the resident size of the stack's
// metadata in the §5.6 accounting style: one treap node (two words of
// payload, two child pointers, priority, count and byte augmentations)
// plus one hash-index entry per tracked object.
func (s *Stack) MemoryOverheadBytes() uint64 {
	const perNode = 64  // node struct, padded
	const perIndex = 48 // map entry: key + pointer + bucket overhead
	return uint64(s.Len()) * (perNode + perIndex)
}

// Contains reports residency of key.
func (s *Stack) Contains(key uint64) bool {
	_, ok := s.index[key]
	return ok
}

// SizeOf returns the recorded size of key and whether it is resident.
func (s *Stack) SizeOf(key uint64) (uint32, bool) {
	n, ok := s.index[key]
	if !ok {
		return 0, false
	}
	return n.size, true
}
