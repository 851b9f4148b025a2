package core

import (
	"math"
	"math/bits"

	"krr/internal/keytab"
	"krr/internal/telemetry"
	"krr/internal/xrand"
)

// This file implements the bucketized KRR stack: the Eq. 4.1
// probability model evaluated at bucket granularity instead of
// per-position, for O(log M) work per reference with no pow on the
// hot path.
//
// The derivation: for one stack update to depth φ, the probability
// that positions a..b contain no swap-chain point is exactly
// ((a-1)/b)^K′ (telescoping Eq. 4.1 across the interval — the same
// closed form Algorithm 1 splits on), and the no-swap events of
// disjoint intervals are independent. Partition positions 1..M into
// fixed geometric buckets and the whole inverse-CDF walk of
// buildChainBackward collapses to one Bernoulli per bucket below the
// referenced one — "does the chain land in this bucket at all" — with
// a precomputed threshold, because bucket boundaries never move.
// Bucket 0 starts at position 1, so its threshold is 0 and it is
// always on the chain.
//
// The chain's effect on the stack is applied MIMIR-style, rotating
// victims between buckets instead of shifting every chain position:
// the referenced object leaves a hole at φ; walking the visited
// buckets deep-to-shallow, one member of each visited bucket drops
// down to fill the hole in the previously visited (deeper) bucket;
// the referenced object lands in bucket 0. The dropped member is
// chosen uniformly within its bucket: in the exact update the object
// a bucket gives up sits at its deepest chain point, but the exact
// stack also reshuffles bucket members every update through the
// chain's interior points, so over updates every member's exit
// exposure equalizes — the uniform choice models the time-averaged
// (well-mixed) dynamics. (Sampling the one-update marginal — the
// deepest-point law ⌈b·u^{1/K′}⌉ — is measurably worse: without the
// reshuffling it makes intra-bucket position sticky and shallow
// members near-immortal.) The approximation vanishes as the bucket
// ratio approaches 1: with ratio 1 every bucket holds one position
// and the walk is exactly Mattson's per-position linear law.
//
// The stack's only per-object storage is one open-addressing key
// table whose entry index is the object's slot: parallel arrays of
// keys and nominal positions, with order mapping position → entry.
// A lookup yields the position in the same probe that finds the key.
// The structure is pointer-free: snapshotting or sharding it costs a
// few slice copies.
//
// The per-reference path makes no call and no atomic write: draws come
// from drawBatch's inlined fast path (the bucket walk keeps the cursor
// in a local), bucketOf starts from a table indexed by bits.Len32(p),
// and the telemetry counters are plain fields that Publish copies to
// atomics once per ingest call.

// DefaultBucketRatio is the geometric bucket growth ratio used when a
// configuration leaves it zero: buckets coarse enough for the O(1)
// amortized update, fine enough to stay near the backward sampler's
// accuracy (see difftest.BucketEnvelope). Measured on the harness
// trials, ratio 2 sits within ~0.015 MAE of the exact backward law
// while halving the per-reference bucket walk vs ratio 1.25.
const DefaultBucketRatio = 2.0

// MaxBucketRatio bounds configurable bucket ratios; beyond ~4 the
// coarse top buckets visibly distort the distance distribution.
const MaxBucketRatio = 4.0

// bucketSpan is one geometric bucket: the closed range of nominal
// stack positions it owns and the precomputed probability that a
// stack update's swap chain skips it entirely.
type bucketSpan struct {
	start, end int32
	// pNoSwap = ((start-1)/end)^K′ — Eq. 4.1 telescoped across the
	// span. 0 for bucket 0 (position 1 is always a chain endpoint).
	pNoSwap float64
	// scale = width/(1-pNoSwap) turns a draw's tail into a victim
	// offset in one multiply: conditioned on u > pNoSwap,
	// (u-pNoSwap)/(1-pNoSwap) is again uniform in (0, 1], so
	// start + ⌊(u-pNoSwap)·scale⌋ is a uniform position in the span.
	scale float64
}

// BucketStack is the bucketized KRR stack. Positions are 1-based
// nominal positions with position 1 the top; distances are reported
// at position granularity while updates run at bucket granularity.
type BucketStack struct {
	kPrime float64
	ratio  float64
	draws  drawBatch

	// Key table: open addressing over parallel arrays, entry index =
	// slot. Same scheme as keytab.Table — power-of-two capacity,
	// keytab.Home (top bits of Mix64), linear probing, grow at 3/4
	// load, backward-shift delete — but the value is the object's
	// nominal position, and an entry that moves (grow, delete shift)
	// rewrites its order cell, so it cannot be a keytab.Table.
	// tpos[i] == 0 marks an empty entry (positions are 1-based), so
	// key 0 needs no sentinel.
	tkeys []uint64
	tpos  []int32
	mask  uint64
	shift uint
	max   int // grow threshold (3/4 load)

	order []int32 // nominal position -> table entry ([0] unused)

	buckets []bucketSpan
	// ends[i] == buckets[i].end, kept flat so bucketOf's binary search
	// touches one densely packed cache line instead of striding
	// through 24-byte spans.
	ends []int32
	// octave[l] is the bucket holding position 2^(l-1), or MaxInt32
	// until that bucket is first built. A position p with
	// bits.Len32(p) == l lies in buckets octave[l]..octave[l+1], so
	// bucketOf searches only that range: at ratio 2, one or two
	// buckets. A span depends only on (ratio, K′), so entries stay
	// valid when Delete pops buckets and Reference rebuilds them.
	octave [34]int32

	// Telemetry: plain counters the owner writes per update, copied
	// into pub by Publish (see published).
	moves    uint64 // inter-bucket victim moves applied
	updates  uint64
	depthSum uint64 // Σφ over updates
	pub      published
}

// bucketTableMinCap is the key table's initial (and minimum) capacity.
const bucketTableMinCap = 16

// NewBucketStack returns an empty bucketized KRR stack with exponent
// kPrime (pass KPrimeFor(K)) and geometric bucket ratio in
// [1, MaxBucketRatio]; ratio 0 selects DefaultBucketRatio.
func NewBucketStack(kPrime, ratio float64, seed uint64) *BucketStack {
	if kPrime <= 0 {
		panic("core: kPrime must be positive")
	}
	if ratio == 0 {
		ratio = DefaultBucketRatio
	}
	if ratio < 1 || ratio > MaxBucketRatio {
		panic("core: bucket ratio out of [1, MaxBucketRatio]")
	}
	s := &BucketStack{
		kPrime: kPrime,
		ratio:  ratio,
		draws:  newDrawBatch(xrand.New(seed)),
		order:  make([]int32, 1),
	}
	for l := range s.octave {
		s.octave[l] = math.MaxInt32
	}
	s.initTable(bucketTableMinCap)
	return s
}

// initTable allocates an empty key table of the given power-of-two
// capacity.
func (s *BucketStack) initTable(capacity int) {
	s.tkeys = make([]uint64, capacity)
	s.tpos = make([]int32, capacity)
	s.mask = uint64(capacity - 1)
	s.shift = 64 - uint(bits.TrailingZeros(uint(capacity)))
	s.max = capacity - capacity>>2
}

func (s *BucketStack) home(key uint64) uint64 { return keytab.Home(key, s.shift) }

// find returns key's table entry and whether it is resident; when
// absent, the entry is the empty one that ends its probe run.
func (s *BucketStack) find(key uint64) (uint64, bool) {
	i := s.home(key)
	for s.tpos[i] != 0 {
		if s.tkeys[i] == key {
			return i, true
		}
		i = (i + 1) & s.mask
	}
	return i, false
}

// grow doubles the key table, rehashing every entry and repointing
// its order cell at the entry's new index.
func (s *BucketStack) grow() {
	oldKeys, oldPos := s.tkeys, s.tpos
	s.initTable(len(oldKeys) * 2)
	for j, p := range oldPos {
		if p == 0 {
			continue
		}
		key := oldKeys[j]
		i, _ := s.find(key)
		s.tkeys[i] = key
		s.tpos[i] = p
		s.order[p] = int32(i)
	}
}

// unlink empties table entry i, backward-shifting the probe run after
// it so no tombstone remains; each entry that moves rewrites its order
// cell. The entry's object must already be off the stack.
func (s *BucketStack) unlink(i uint64) {
	j := i
	for {
		j = (j + 1) & s.mask
		p := s.tpos[j]
		if p == 0 {
			break
		}
		h := s.home(s.tkeys[j])
		if (j-h)&s.mask >= (j-i)&s.mask {
			s.tkeys[i] = s.tkeys[j]
			s.tpos[i] = p
			s.order[p] = int32(i)
			i = j
		}
	}
	s.tpos[i] = 0
}

// KPrime returns the stack exponent.
func (s *BucketStack) KPrime() float64 { return s.kPrime }

// Ratio returns the geometric bucket growth ratio.
func (s *BucketStack) Ratio() float64 { return s.ratio }

// Len returns the number of objects on the stack.
func (s *BucketStack) Len() int { return len(s.order) - 1 }

// Buckets returns the number of active buckets.
func (s *BucketStack) Buckets() int { return len(s.buckets) }

// At returns the key at 1-based nominal position i.
func (s *BucketStack) At(i int) uint64 { return s.tkeys[s.order[i]] }

// PositionOf returns key's 1-based nominal position, or 0 if absent.
func (s *BucketStack) PositionOf(key uint64) int32 {
	i, ok := s.find(key)
	if !ok {
		return 0
	}
	return s.tpos[i]
}

// Moves returns the cumulative inter-bucket victim moves applied —
// the bucketized analog of Stack.SwapSteps.
func (s *BucketStack) Moves() uint64 { return s.moves }

// Updates returns the number of stack updates performed.
func (s *BucketStack) Updates() uint64 { return s.updates }

// DepthSum returns the cumulative reference depth (Σφ over updates).
func (s *BucketStack) DepthSum() uint64 { return s.depthSum }

// Publish copies the stack's counters, length and bucket count into
// the atomics MetricsInto reads. The owner calls it between
// references; the accessors above are exact at every point without it.
func (s *BucketStack) Publish() {
	s.pub.store(s.updates, s.depthSum, s.moves, s.Len(), len(s.buckets))
}

// MetricsInto registers the stack's telemetry under prefix, as of the
// last Publish; every read is atomic and scrape-safe mid-stream.
func (s *BucketStack) MetricsInto(set *telemetry.Set, prefix string) {
	p := &s.pub
	set.GaugeFunc(prefix+"stack_len", "objects resident on the bucketized KRR stack", func() float64 {
		return float64(p.length.Load())
	})
	set.GaugeFunc(prefix+"buckets", "active geometric buckets", func() float64 {
		return float64(p.buckets.Load())
	})
	set.CounterFunc(prefix+"updates_total", "stack updates performed", p.updates.Load)
	set.CounterFunc(prefix+"bucket_moves_total", "inter-bucket victim moves applied", p.steps.Load)
	set.CounterFunc(prefix+"update_depth_sum", "cumulative reference depth phi across updates", p.depthSum.Load)
	set.GaugeFunc(prefix+"bucket_moves_per_update", "average victim moves per stack update", p.ratio(&p.steps))
	set.GaugeFunc(prefix+"update_depth_avg", "average reference depth per stack update", p.ratio(&p.depthSum))
}

// bucketOf returns the index of the bucket owning nominal position p:
// a binary search over ends, narrowed by the octave table.
func (s *BucketStack) bucketOf(p int32) int {
	ends := s.ends
	l := bits.Len32(uint32(p))
	lo, hi := int(s.octave[l]), min(int(s.octave[l+1]), len(ends)-1)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ends[mid] < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// newSpan builds bucket idx of the fixed nominal geometry: capacity
// max(1, round(ratio^idx)), starting right after the previous bucket.
// The spans — and therefore every pNoSwap — depend only on (ratio,
// K′), so a deleted-then-regrown bucket is always rebuilt identically.
func (s *BucketStack) newSpan(idx int) bucketSpan {
	var start int32 = 1
	if idx > 0 {
		start = s.buckets[idx-1].end + 1
	}
	width := int32(math.Round(math.Pow(s.ratio, float64(idx))))
	if width < 1 {
		width = 1
	}
	sp := bucketSpan{start: start, end: start + width - 1, scale: float64(width)}
	if start > 1 {
		sp.pNoSwap = math.Pow(float64(start-1)/float64(sp.end), s.kPrime)
		sp.scale = float64(width) / (1 - sp.pNoSwap)
	}
	return sp
}

// addBucket appends the next bucket of the geometry and records it in
// the octave table for each power of two it spans.
func (s *BucketStack) addBucket() {
	idx := len(s.buckets)
	sp := s.newSpan(idx)
	s.buckets = append(s.buckets, sp)
	s.ends = append(s.ends, sp.end)
	for l := bits.Len32(uint32(sp.start-1)) + 1; l <= bits.Len32(uint32(sp.end)); l++ {
		s.octave[l] = int32(idx)
	}
}

// Reference processes an access to key and returns its stack distance
// (the nominal position, Cold for first touches — appended to the
// stack bottom before the update, matching Algorithm 1's convention).
// The model is object-granular, so size is ignored.
func (s *BucketStack) Reference(key uint64, size uint32) Result {
	i, ok := s.find(key)
	var res Result
	var p int32
	if ok {
		p = s.tpos[i]
		res.Distance = uint64(p)
	} else {
		if s.Len() >= s.max {
			s.grow()
			i, _ = s.find(key)
		}
		p = int32(len(s.order))
		s.tkeys[i] = key
		s.tpos[i] = p
		s.order = append(s.order, int32(i))
		if nb := len(s.buckets); nb == 0 || p > s.buckets[nb-1].end {
			s.addBucket()
		}
		res.Cold = true
	}
	s.update(int32(i), p)
	return res
}

// update applies one bucket-granular stack update for a reference at
// nominal position p: one Bernoulli per bucket above p's, then a
// deep-to-shallow victim rotation through the visited buckets.
func (s *BucketStack) update(slot, p int32) {
	s.updates++
	s.depthSum += uint64(p)
	b := s.bucketOf(p)
	if b == 0 {
		// Top bucket: the bucket-granular state is unchanged.
		return
	}
	order, tpos, bks := s.order, s.tpos, s.buckets
	hole := p
	var moved uint64
	// The draw cursor lives in a local for the walk and is written
	// back once: drawBatch.next, inlined by hand.
	d := &s.draws
	pos := d.pos
	for j := b - 1; j >= 1; j-- {
		bk := bks[j]
		if pos >= rngBatch {
			d.refill()
			pos = 0
		}
		u := d.buf[pos]
		pos++
		if u <= bk.pNoSwap {
			continue
		}
		// The draw's tail doubles as the victim draw (see
		// bucketSpan.scale); rounding can land one past the span.
		q := bk.start + int32((u-bk.pNoSwap)*bk.scale)
		if q > bk.end {
			q = bk.end
		}
		v := order[q]
		order[hole] = v
		tpos[v] = hole
		hole = q
		moved++
	}
	d.pos = pos
	// Bucket 0 is the single position 1 (width round(ratio^0) = 1 for
	// every legal ratio) and is always on the chain, so its "victim
	// draw" is deterministic: the object at position 1 drops into the
	// hole and the referenced object takes the top.
	v := order[1]
	order[hole] = v
	tpos[v] = hole
	order[1] = slot
	tpos[slot] = 1
	s.moves += moved + 1
}

// Delete removes key from the stack in O(buckets): the hole cascades
// downward, each bucket below pulling one uniform member up from the
// next deeper bucket, so every bucket's span stays fully occupied and
// only the bottom position is surrendered. The table entry is
// unlinked after the cascade, when every surviving position is final.
// Returns whether the key was resident.
func (s *BucketStack) Delete(key uint64) bool {
	i, ok := s.find(key)
	if !ok {
		return false
	}
	p := s.tpos[i]
	n := int32(len(s.order) - 1)
	last := s.bucketOf(n)
	hole := p
	for j := s.bucketOf(p); j < last; j++ {
		bk := s.buckets[j+1]
		hi := bk.end
		if hi > n {
			hi = n
		}
		q := bk.start + int32(s.draws.next()*float64(hi-bk.start+1))
		if q > hi {
			q = hi
		}
		v := s.order[q]
		s.order[hole] = v
		s.tpos[v] = hole
		hole = q
	}
	if hole != n {
		v := s.order[n]
		s.order[hole] = v
		s.tpos[v] = hole
	}
	s.order = s.order[:n]
	for len(s.buckets) > 0 && s.buckets[len(s.buckets)-1].start > n-1 {
		s.buckets = s.buckets[:len(s.buckets)-1]
		s.ends = s.ends[:len(s.buckets)]
	}
	s.unlink(i)
	return true
}

// MemoryOverheadBytes reports the resident metadata cost (§5.6
// accounting): 12 B per key-table entry (key + position) at 3/8–3/4
// load, 4 B per allocated order cell, and the bucket table.
func (s *BucketStack) MemoryOverheadBytes() uint64 {
	return uint64(len(s.tkeys))*(8+4) +
		uint64(cap(s.order))*4 +
		uint64(len(s.buckets))*(24+4)
}
