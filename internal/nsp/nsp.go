// Package nsp implements single-pass stack distances for the NSP
// class of replacement policies (Bilardi, Ekanadham & Pattnaik, CF
// '11 — §6.2): policies where an object's priority changes only upon
// access to that object. LFU (with perfect history), MRU and OPT are
// NSP.
//
// Stack is the generic priority-ordered engine: the just-referenced
// object sits on top and every other object is ordered by its
// priority, making a reference's stack distance an order-statistic
// query — answered here in O(log M) with a priority-keyed treap, the
// same asymptotics Min-Tree achieves. This ordering coincides with
// Mattson's stack when evicted objects cannot outrank residents —
// which holds for ascending policies like LFU, whose priorities only
// grow with further accesses, but NOT for MRU, where the referenced
// object takes the globally lowest priority and long-evicted objects
// keep frozen recency priorities above current residents. Use
// MRUStack (mru.go) for exact MRU distances; Stack with the MRU
// policy survives only as the priority tuple the exact simulator
// shares.
//
// Concrete policies:
//
//   - LFU: priority = (access count, last access), modeling the
//     frequency-based sampled eviction the paper names as future work
//     (§7) in its exact, full-ordering form.
//   - MRU: priority = inverse recency (oldest objects rank highest) —
//     the classic anti-recency policy, useful for loop workloads.
package nsp

import (
	"krr/internal/histogram"
	"krr/internal/trace"
	"krr/internal/xrand"
)

// Policy assigns priorities. Priority returns the object's new
// priority tuple after an access given its previous state; higher
// tuples (lexicographic) are kept longer.
type Policy interface {
	// Priority returns the post-access priority for an object with
	// the given access count (including this access) at logical time
	// now.
	Priority(accessCount uint64, now uint64) [2]uint64
	// Name identifies the policy.
	Name() string
}

// LFU keeps the most frequently used objects: priority (count, time).
// Frequency history survives eviction (perfect LFU), matching the
// stack model's global ordering.
type LFU struct{}

// Priority implements Policy.
func (LFU) Priority(count, now uint64) [2]uint64 { return [2]uint64{count, now} }

// Name implements Policy.
func (LFU) Name() string { return "lfu" }

// MRU keeps the *least* recently used objects (evicts the most
// recent): priority = inverted recency.
type MRU struct{}

// Priority implements Policy.
func (MRU) Priority(_, now uint64) [2]uint64 { return [2]uint64{^now, 0} }

// Name implements Policy.
func (MRU) Name() string { return "mru" }

// node is a treap node ordered by priority tuple descending (the
// in-order traversal walks from highest to lowest priority).
type node struct {
	prio  [2]uint64
	prioR uint64 // heap priority
	left  *node
	right *node
	cnt   uint32
}

func cnt(n *node) uint32 {
	if n == nil {
		return 0
	}
	return n.cnt
}

func (n *node) pull() { n.cnt = 1 + cnt(n.left) + cnt(n.right) }

// less orders priority tuples ascending.
func less(a, b [2]uint64) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// Stack computes NSP stack distances.
type Stack struct {
	policy Policy
	root   *node
	// state per object: access count and current priority.
	counts map[uint64]uint64
	prios  map[uint64][2]uint64
	lastId uint64 // the previously referenced key (stack top)
	hasTop bool
	clock  uint64
	rng    *xrand.Source
	hist   *histogram.Dense
}

// New builds an NSP stack for the given policy.
func New(policy Policy, seed uint64) *Stack {
	if policy == nil {
		panic("nsp: nil policy")
	}
	return &Stack{
		policy: policy,
		counts: make(map[uint64]uint64),
		prios:  make(map[uint64][2]uint64),
		rng:    xrand.New(seed),
		hist:   histogram.NewDense(1024),
	}
}

// insert adds a priority to the treap.
func (s *Stack) insert(p [2]uint64) {
	n := &node{prio: p, prioR: s.rng.Uint64(), cnt: 1}
	s.root = merge3(s.root, n)
}

// merge3 inserts n into t preserving priority order.
func merge3(t, n *node) *node {
	if t == nil {
		return n
	}
	if n.prioR > t.prioR {
		// Split t around n's priority.
		n.left, n.right = split(t, n.prio)
		n.pull()
		return n
	}
	if less(t.prio, n.prio) {
		// Higher priorities live on the left (descending order).
		t.left = merge3(t.left, n)
	} else {
		t.right = merge3(t.right, n)
	}
	t.pull()
	return t
}

// split divides t into (priorities > p, priorities <= p).
func split(t *node, p [2]uint64) (hi, lo *node) {
	if t == nil {
		return nil, nil
	}
	if less(p, t.prio) { // t.prio > p → t goes to hi
		t.right, lo = split(t.right, p)
		t.pull()
		return t, lo
	}
	hi, t.left = split(t.left, p)
	t.pull()
	return hi, t
}

// remove deletes the node with exactly priority p (must exist).
func (s *Stack) remove(p [2]uint64) {
	s.root = removeNode(s.root, p)
}

func removeNode(t *node, p [2]uint64) *node {
	if t == nil {
		return nil
	}
	if t.prio == p {
		return mergeLR(t.left, t.right)
	}
	if less(t.prio, p) {
		t.left = removeNode(t.left, p)
	} else {
		t.right = removeNode(t.right, p)
	}
	t.pull()
	return t
}

// mergeLR joins two treaps where every priority in l exceeds every
// priority in r.
func mergeLR(l, r *node) *node {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	if l.prioR >= r.prioR {
		l.right = mergeLR(l.right, r)
		l.pull()
		return l
	}
	r.left = mergeLR(l, r.left)
	r.pull()
	return r
}

// rankAbove counts nodes with priority strictly greater than p. The
// treap's in-order traversal runs from highest to lowest priority, so
// everything "above p" lies to the left of p's position.
func (s *Stack) rankAbove(p [2]uint64) uint32 {
	var above uint32
	n := s.root
	for n != nil {
		if less(p, n.prio) { // n is above p
			above += 1 + cnt(n.left)
			n = n.right
		} else {
			n = n.left
		}
	}
	return above
}

// Result is one reference's outcome.
type Result struct {
	Cold     bool
	Distance uint64
}

// Reference processes one access and returns the NSP stack distance:
// 1 for a repeat of the immediately preceding reference, otherwise
// 2 + the number of other objects with strictly higher priority
// (position 1 is always the previously referenced object).
func (s *Stack) Reference(key uint64) Result {
	s.clock++
	count, seen := s.counts[key]
	count++
	s.counts[key] = count
	newPrio := s.policy.Priority(count, s.clock)

	var res Result
	if !seen {
		res.Cold = true
		s.hist.AddCold()
		s.insert(newPrio)
		s.prios[key] = newPrio
		s.lastId = key
		s.hasTop = true
		return res
	}

	old := s.prios[key]
	if s.hasTop && key == s.lastId {
		res.Distance = 1
	} else {
		above := uint64(s.rankAbove(old))
		// Exclude the stack-top object from the priority count (it
		// occupies position 1 regardless of priority) and add it back
		// as one position.
		if s.hasTop {
			if topPrio, ok := s.prios[s.lastId]; ok && less(old, topPrio) {
				above--
			}
			res.Distance = above + 2
		} else {
			res.Distance = above + 1
		}
	}
	s.hist.Add(res.Distance)
	s.remove(old)
	s.insert(newPrio)
	s.prios[key] = newPrio
	s.lastId = key
	s.hasTop = true
	return res
}

// Process feeds one request (deletes are unsupported by the NSP model
// and ignored).
func (s *Stack) Process(req trace.Request) {
	if req.Op == trace.OpDelete {
		return
	}
	s.Reference(req.Key)
}

// Hist exposes the stack distance histogram.
func (s *Stack) Hist() *histogram.Dense { return s.hist }

// MemoryOverheadBytes estimates the model's resident metadata: one
// treap node plus two map entries (counts, prios) per distinct object,
// plus the histogram.
func (s *Stack) MemoryOverheadBytes() uint64 {
	const perNode = 56  // prio tuple + heap prio + children + count, padded
	const perEntry = 48 // counts entry
	const perPrio = 56  // prios entry: key + [2]uint64 + bucket overhead
	return uint64(len(s.counts))*(perNode+perEntry+perPrio) + s.hist.MemBytes()
}
