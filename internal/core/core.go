// Package core implements KRR, the paper's contribution (§4): a
// probabilistic stack algorithm that statistically approximates the
// random sampling-based LRU policy (K-LRU) for arbitrary sampling
// size K, enabling one-pass miss-ratio-curve construction.
//
// The stack obeys Equation 4.1: on an update touching positions 1..φ,
// the object at position i keeps its slot with probability
// ((i-1)/i)^K′. Swap positions — where the carried-down object is
// deposited and the incumbent picked up — are generated by one of
// three equivalent samplers:
//
//   - Linear (§2.2): one Bernoulli draw per position, O(M)/update —
//     Table 5.3's "Basic Stack" baseline.
//   - TopDown (§4.3.1, Algorithm 1): recursive interval splitting
//     with conditional draws, O(K log² M)/update expected.
//   - Backward (§4.3.2, Algorithm 2): inverse-CDF walk from φ toward
//     the top, O(K log M)/update expected. This is the default.
//
// All three draw from the same joint distribution over swap sets, so
// the modelled MRC does not depend on the method (§5.3).
//
// To model a K-LRU cache with sampling size K, the stack runs with
// exponent K′ = K^1.4 (§4.2): KRR orders recency only coarsely, and
// the inflated exponent offsets its tendency to evict more recently
// used objects. K = 1 needs no correction — KRR degenerates to
// Mattson's RR stack, which is statistically exact for random
// replacement.
//
// The package exports stacks, which return distances: Stack (all three
// samplers, optional byte trackers) and BucketStack. The spatial
// filter, stream counters and histograms around a stack belong to the
// krr and krr-bucket models in internal/model.
package core

import (
	"math"
	"math/bits"

	"krr/internal/keytab"
	"krr/internal/telemetry"
	"krr/internal/xrand"
)

// UpdateMethod selects the swap-position sampler.
type UpdateMethod uint8

// Update methods, fastest first.
const (
	// Backward is Algorithm 2: O(K log M) expected per update.
	Backward UpdateMethod = iota
	// TopDown is Algorithm 1: O(K log² M) expected per update.
	TopDown
	// Linear is Mattson's original per-position walk: O(M) per update.
	Linear
)

// String names the method.
func (m UpdateMethod) String() string {
	switch m {
	case Backward:
		return "backward"
	case TopDown:
		return "topdown"
	case Linear:
		return "linear"
	default:
		return "method?"
	}
}

// KPrimeFor returns the corrected stack exponent K′ for modeling a
// K-LRU cache with sampling size k: K′ = k^1.4, with K′ = 1 for k <= 1
// (§4.2).
func KPrimeFor(k int) float64 {
	if k <= 1 {
		return 1
	}
	return math.Pow(float64(k), 1.4)
}

// Result reports one reference's outcome.
type Result struct {
	// Cold marks a first-touch reference.
	Cold bool
	// Distance is the KRR stack distance in objects (φ).
	Distance uint64
	// ByteDistance is the byte-granularity stack distance; zero unless
	// the stack was built with a byte tracker.
	ByteDistance uint64
}

// Stack is the KRR stack. Positions are 1-based with position 1 the
// top; the backing array plus a position hash give O(1) lookup
// (§4.4), and updates move only the O(K log M) expected swap
// positions.
type Stack struct {
	kPrime float64
	invK   float64
	method UpdateMethod
	src    *xrand.Source

	keys  []uint64 // keys[0] unused
	sizes []uint32 // parallel to keys
	pos   *keytab.Table[int32]

	totalBytes uint64
	tracker    byteTracker // nil = object-granularity only

	chain []int32 // reusable ascending swap chain, including 1 and φ
	ivBuf []interval
	// draws batches the backward sampler's uniform draws (draws.go).
	draws drawBatch
	// lnTab caches ln(i) for stack positions; the top-down sampler
	// computes ((a-1)/b)^K′ = exp(K′·(ln(a-1) − ln b)) per tree node,
	// and exp with two table lookups beats math.Pow measurably.
	lnTab []float64

	// Telemetry: plain counters the owner writes per update, copied
	// into pub by Publish for MetricsInto's readers.
	swapSteps uint64 // total chain positions applied (excl. endpoints)
	updates   uint64
	depthSum  uint64 // Σφ over updates: reference depth
	pub       published
}

// published is the scrape-side copy of a stack's telemetry: atomics
// that MetricsInto reads and only the stack's Publish writes. The
// stacks count in plain fields, so the per-reference path carries no
// atomic read-modify-write; the caller publishes once per ingest call
// (the krr adapters do after every Process and ProcessBatch), and a
// scrape between publications reads the counts as of the last one.
type published struct {
	updates, depthSum, steps telemetry.Counter
	length, buckets          telemetry.Gauge
}

// store publishes the owner's counts. The gauges change only on a
// first touch or a delete, so they are stored only when they moved.
func (p *published) store(updates, depthSum, steps uint64, length, buckets int) {
	p.updates.Store(updates)
	p.depthSum.Store(depthSum)
	p.steps.Store(steps)
	if int64(length) != p.length.Load() {
		p.length.Set(int64(length))
	}
	if int64(buckets) != p.buckets.Load() {
		p.buckets.Set(int64(buckets))
	}
}

// ratio is a published per-update average: n over updates, 0 before
// the first update.
func (p *published) ratio(n *telemetry.Counter) func() float64 {
	return func() float64 {
		u := p.updates.Load()
		if u == 0 {
			return 0
		}
		return float64(n.Load()) / float64(u)
	}
}

type interval struct{ a, b int32 }

// Option configures a Stack.
type Option func(*Stack)

// WithMethod selects the update sampler (default Backward).
func WithMethod(m UpdateMethod) Option { return func(s *Stack) { s.method = m } }

// WithSizeArray attaches the paper's logarithmic prefix-sum tracker
// (§4.4.1, base 2), enabling approximate byte-granularity distances at
// O(log M) maintenance cost.
func WithSizeArray() Option { return func(s *Stack) { s.tracker = newSizeArray() } }

// WithFenwick attaches an exact Fenwick-tree byte tracker — the
// oracle the sizeArray approximation is validated against, at
// O(K log² M) maintenance cost.
func WithFenwick() Option { return func(s *Stack) { s.tracker = newFenwick() } }

// NewStack returns an empty KRR stack with exponent kPrime (pass
// KPrimeFor(K) to model a K-LRU cache, or an exact float for
// ablation).
func NewStack(kPrime float64, seed uint64, opts ...Option) *Stack {
	if kPrime <= 0 {
		panic("core: kPrime must be positive")
	}
	src := xrand.New(seed)
	s := &Stack{
		kPrime: kPrime,
		invK:   1 / kPrime,
		method: Backward,
		src:    src,
		keys:   make([]uint64, 1),
		sizes:  make([]uint32, 1),
		pos:    keytab.New[int32](),
		draws:  newDrawBatch(src),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// KPrime returns the stack exponent.
func (s *Stack) KPrime() float64 { return s.kPrime }

// Method returns the configured update method.
func (s *Stack) Method() UpdateMethod { return s.method }

// Len returns the number of objects on the stack.
func (s *Stack) Len() int { return len(s.keys) - 1 }

// TotalBytes returns the byte total across resident objects.
func (s *Stack) TotalBytes() uint64 { return s.totalBytes }

// At returns the key at 1-based position i.
func (s *Stack) At(i int) uint64 { return s.keys[i] }

// SizeAt returns the size at 1-based position i.
func (s *Stack) SizeAt(i int) uint32 { return s.sizes[i] }

// PositionOf returns key's 1-based position, or 0 if absent.
func (s *Stack) PositionOf(key uint64) int32 { return s.pos.Get(key) }

// SwapSteps returns the cumulative number of interior swap positions
// processed — the stack-update-overhead metric of Figure 5.4.
func (s *Stack) SwapSteps() uint64 { return s.swapSteps }

// Updates returns the number of stack updates performed.
func (s *Stack) Updates() uint64 { return s.updates }

// DepthSum returns the cumulative reference depth (Σφ over updates).
func (s *Stack) DepthSum() uint64 { return s.depthSum }

// Publish copies the stack's counters and length into the atomics
// MetricsInto reads. The owner calls it between references; the
// accessors above are exact at every point without it.
func (s *Stack) Publish() {
	s.pub.store(s.updates, s.depthSum, s.swapSteps, s.Len(), 0)
}

// MetricsInto registers the stack's telemetry under prefix: resident
// length, update and swap-step totals, cumulative reference depth, and
// the derived per-update averages, as of the last Publish. Every read
// is atomic, so a scrape is safe while the stack is processing.
func (s *Stack) MetricsInto(set *telemetry.Set, prefix string) {
	p := &s.pub
	set.GaugeFunc(prefix+"stack_len", "objects resident on the KRR stack", func() float64 {
		return float64(p.length.Load())
	})
	set.CounterFunc(prefix+"updates_total", "stack updates performed", p.updates.Load)
	set.CounterFunc(prefix+"swap_steps_total", "interior swap positions applied (Fig. 5.4 overhead)", p.steps.Load)
	set.CounterFunc(prefix+"update_depth_sum", "cumulative reference depth phi across updates", p.depthSum.Load)
	set.GaugeFunc(prefix+"swap_steps_per_update", "average swap positions per stack update", p.ratio(&p.steps))
	set.GaugeFunc(prefix+"update_depth_avg", "average reference depth per stack update", p.ratio(&p.depthSum))
}

// Reference processes an access to key with the given object size and
// returns its stack distances. For cold references the distances are
// undefined (the object is appended to the stack bottom before the
// update, per Algorithm 1's convention).
func (s *Stack) Reference(key uint64, size uint32) Result {
	phi := s.pos.Get(key)
	var res Result
	if phi == 0 {
		s.keys = append(s.keys, key)
		s.sizes = append(s.sizes, size)
		phi = int32(len(s.keys) - 1)
		// No index write here: update() ends by placing key at
		// position 1 and writing the index exactly once. Only the
		// phi == 1 early return (empty stack) needs the insert.
		if phi == 1 {
			s.pos.Put(key, 1)
		}
		s.totalBytes += uint64(size)
		if s.tracker != nil {
			s.tracker.Append(size)
		}
		res.Cold = true
	} else {
		if s.sizes[phi] != size {
			old := s.sizes[phi]
			s.totalBytes += uint64(size) - uint64(old)
			if s.tracker != nil {
				s.tracker.Resize(phi, old, size)
			}
			s.sizes[phi] = size
		}
		res.Distance = uint64(phi)
		if s.tracker != nil {
			res.ByteDistance = s.tracker.ByteDistance(phi, s)
		}
	}
	s.update(key, size, phi)
	return res
}

// UniformByteDistance estimates a byte distance under the uniform
// object size assumption: φ × (mean object size). This is the
// "uni-KRR" estimator of §5.4 that variable-size awareness is
// evaluated against.
func (s *Stack) UniformByteDistance(distance uint64) uint64 {
	n := uint64(s.Len())
	if n == 0 {
		return 0
	}
	return uint64(float64(distance) * float64(s.totalBytes) / float64(n))
}

// update applies one stack update for a reference landing at position
// phi.
func (s *Stack) update(key uint64, size uint32, phi int32) {
	s.updates++
	s.depthSum += uint64(phi)
	if phi == 1 {
		return
	}
	switch s.method {
	case Backward:
		s.buildChainBackward(phi)
	case TopDown:
		s.buildChainTopDown(phi)
	default:
		s.buildChainLinear(phi)
	}
	s.swapSteps += uint64(len(s.chain) - 2)
	if s.tracker != nil {
		s.tracker.ApplySwaps(s.chain, s.sizes, size)
	}
	// Cyclic shift down the chain: the carried object starts as the
	// old top and deposits at each swap position; the old occupant of
	// φ is the referenced object itself and is re-placed at the top.
	carried, carriedSize := s.keys[1], s.sizes[1]
	for _, v := range s.chain[1:] {
		carried, s.keys[v] = s.keys[v], carried
		carriedSize, s.sizes[v] = s.sizes[v], carriedSize
		s.pos.Set(s.keys[v], v)
	}
	s.keys[1], s.sizes[1] = key, size
	// Put, not Set: on a cold reference this is the key's first (and
	// only) index insert.
	s.pos.Put(key, 1)
}

// nextOpen returns the next batched uniform draw from (0, 1].
func (s *Stack) nextOpen() float64 { return s.draws.next() }

// buildChainBackward samples the swap chain via Algorithm 2: starting
// at φ, each step draws the source position x of the object that
// lands at the current position from the inverse CDF
// P(x <= m) = (m/(i-1))^K′, and recurses at x until reaching the top.
//
// The K′ ≠ 1 inverse r^(1/K′) = exp((1/K′)·ln r) runs through the
// table-driven powOpen kernel (fastmath.go) — math.Pow's generality
// costs ~4× more for arguments known to lie in (0, 1]; K′ = 1 (the
// RR stack) skips the transform entirely.
func (s *Stack) buildChainBackward(phi int32) {
	s.chain = s.chain[:0]
	i := phi
	if s.kPrime == 1 {
		for i > 1 {
			s.chain = append(s.chain, i)
			x := int32(math.Ceil(s.nextOpen() * float64(i-1)))
			if x < 1 {
				x = 1
			}
			if x >= i { // guard against floating rounding at r == 1
				x = i - 1
			}
			i = x
		}
	} else {
		for i > 1 {
			s.chain = append(s.chain, i)
			r := powOpen(s.nextOpen(), s.invK)
			x := int32(math.Ceil(r * float64(i-1)))
			if x < 1 {
				x = 1
			}
			if x >= i { // guard against floating rounding at r == 1
				x = i - 1
			}
			i = x
		}
	}
	s.chain = append(s.chain, 1)
	// Reverse to ascending order.
	for l, r := 0, len(s.chain)-1; l < r; l, r = l+1, r-1 {
		s.chain[l], s.chain[r] = s.chain[r], s.chain[l]
	}
}

// ln returns ln(i) from the grow-on-demand table (i >= 1).
func (s *Stack) ln(i int32) float64 {
	for int32(len(s.lnTab)) <= i {
		s.lnTab = append(s.lnTab, math.Log(float64(len(s.lnTab))))
	}
	return s.lnTab[i]
}

// noSwapProb returns the probability that positions a..b all keep
// their slots: ((a-1)/b)^K′.
func (s *Stack) noSwapProb(a, b int32) float64 {
	if a <= 1 {
		return 0
	}
	if s.kPrime == 1 {
		return float64(a-1) / float64(b)
	}
	return math.Exp(s.kPrime * (s.ln(a-1) - s.ln(b)))
}

// buildChainTopDown samples the swap chain via Algorithm 1: decide
// whether the interior [2, φ-1] holds any swap positions, then
// recursively split intervals, drawing which halves contain swaps
// conditioned on the parent containing at least one.
func (s *Stack) buildChainTopDown(phi int32) {
	s.chain = append(s.chain[:0], 1)
	if phi > 2 && s.src.Float64() >= s.noSwapProb(2, phi-1) {
		s.ivBuf = append(s.ivBuf[:0], interval{2, phi - 1})
		for len(s.ivBuf) > 0 {
			iv := s.ivBuf[len(s.ivBuf)-1]
			s.ivBuf = s.ivBuf[:len(s.ivBuf)-1]
			if iv.a == iv.b {
				s.chain = append(s.chain, iv.a)
				continue
			}
			mid := (iv.a+iv.b)/2 + 1 // halves [a, mid-1], [mid, b]
			n1 := s.noSwapProb(iv.a, mid-1)
			n2 := s.noSwapProb(mid, iv.b)
			sw1, sw2 := 1-n1, 1-n2
			p1 := sw1 * n2
			p2 := n1 * sw2
			r := s.src.Float64() * (p1 + p2 + sw1*sw2)
			switch {
			case r < p1:
				s.ivBuf = append(s.ivBuf, interval{iv.a, mid - 1})
			case r < p1+p2:
				s.ivBuf = append(s.ivBuf, interval{mid, iv.b})
			default:
				// Both halves; push right first so the left half is
				// processed first and the chain stays ascending.
				s.ivBuf = append(s.ivBuf, interval{mid, iv.b}, interval{iv.a, mid - 1})
			}
		}
	}
	s.chain = append(s.chain, phi)
}

// buildChainLinear samples the swap chain with one Bernoulli draw per
// interior position — Mattson's original walk.
func (s *Stack) buildChainLinear(phi int32) {
	s.chain = append(s.chain[:0], 1)
	for i := int32(2); i < phi; i++ {
		if s.src.Float64() >= s.noSwapProb(i, i) {
			s.chain = append(s.chain, i)
		}
	}
	s.chain = append(s.chain, phi)
}

// Delete removes key from the stack, compacting positions (O(M) plus
// a byte-tracker rebuild; deletes are assumed rare). Returns whether
// the key was resident.
func (s *Stack) Delete(key uint64) bool {
	phi := s.pos.Get(key)
	if phi == 0 {
		return false
	}
	s.totalBytes -= uint64(s.sizes[phi])
	copy(s.keys[phi:], s.keys[phi+1:])
	copy(s.sizes[phi:], s.sizes[phi+1:])
	s.keys = s.keys[:len(s.keys)-1]
	s.sizes = s.sizes[:len(s.sizes)-1]
	s.pos.Del(key)
	for i := int(phi); i < len(s.keys); i++ {
		s.pos.Set(s.keys[i], int32(i))
	}
	if s.tracker != nil {
		s.tracker.Rebuild(s.sizes)
	}
	return true
}

// MemoryOverheadBytes reports the resident metadata cost of the
// stack, following the §5.6 accounting but with the open-addressing
// index instead of the paper's assumed hash map: 12 bytes per array
// slot (key + size) plus the index's actual backing arrays (12 bytes
// per slot at ≤ 3/4 load), ~28-36 bytes per tracked object — under
// half the ~72 B/object the paper books for a bucketed hash table.
func (s *Stack) MemoryOverheadBytes() uint64 {
	return uint64(s.Len())*(8+4) + s.pos.MemBytes()
}

// log2Floor returns floor(log2(v)) for v >= 1.
func log2Floor(v int32) int {
	return bits.Len32(uint32(v)) - 1
}
