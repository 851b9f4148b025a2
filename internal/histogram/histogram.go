// Package histogram implements the stack-distance histograms (SDH)
// behind every MRC in this repository. A stack algorithm emits one
// distance per reference; the miss ratio of a cache of size c is the
// fraction of references whose distance exceeds c (plus cold misses),
// so an MRC is one cumulative pass over the histogram (§2.1).
//
// Two representations are provided. Dense keeps an exact count per
// distance and suits object-granularity distances (bounded by the
// number of distinct sampled objects). Log keeps HDR-style
// logarithmic buckets with 64 sub-buckets per octave (relative error
// <= 1/64) and suits byte-granularity distances, which can span nine
// orders of magnitude.
package histogram

import "math/bits"

// Histogram is the write interface shared by both representations.
type Histogram interface {
	// Add records one reference with the given finite stack distance
	// (distance >= 1; 0 is treated as 1).
	Add(distance uint64)
	// AddN records count references at one finite stack distance in
	// O(1) — the bulk form of Add for correction terms (SHARDS_adj
	// shortfall credits) and histogram merges.
	AddN(distance, count uint64)
	// AddCold records one first-touch reference (infinite distance).
	AddCold()
	// Total returns the number of recorded references.
	Total() uint64
	// Cold returns the number of cold (infinite-distance) references.
	Cold() uint64
	// Buckets iterates finite distances in increasing order, calling
	// fn with a representative distance and the count recorded at it.
	Buckets(fn func(distance, count uint64))
}

// Dense is an exact per-distance histogram.
type Dense struct {
	counts []uint64 // counts[d] for distance d; index 0 unused
	cold   uint64
	total  uint64
}

// NewDense returns an empty dense histogram with capacity hint n.
func NewDense(n int) *Dense {
	if n < 1 {
		n = 1
	}
	return &Dense{counts: make([]uint64, 0, n+1)}
}

// Add records one finite distance.
func (h *Dense) Add(distance uint64) {
	if distance == 0 {
		distance = 1
	}
	for uint64(len(h.counts)) <= distance {
		h.counts = append(h.counts, 0)
	}
	h.counts[distance]++
	h.total++
}

// AddN records count references at one finite distance.
func (h *Dense) AddN(distance, count uint64) {
	if count == 0 {
		return
	}
	if distance == 0 {
		distance = 1
	}
	for uint64(len(h.counts)) <= distance {
		h.counts = append(h.counts, 0)
	}
	h.counts[distance] += count
	h.total += count
}

// AddCold records one cold miss.
func (h *Dense) AddCold() {
	h.cold++
	h.total++
}

// Total returns the number of recorded references.
func (h *Dense) Total() uint64 { return h.total }

// Cold returns the number of cold references.
func (h *Dense) Cold() uint64 { return h.cold }

// MaxDistance returns the largest recorded finite distance (0 if none).
func (h *Dense) MaxDistance() uint64 {
	for d := len(h.counts) - 1; d >= 1; d-- {
		if h.counts[d] != 0 {
			return uint64(d)
		}
	}
	return 0
}

// Count returns the exact count at one distance.
func (h *Dense) Count(distance uint64) uint64 {
	if distance >= uint64(len(h.counts)) {
		return 0
	}
	return h.counts[distance]
}

// Buckets iterates nonzero distances in increasing order.
func (h *Dense) Buckets(fn func(distance, count uint64)) {
	for d := 1; d < len(h.counts); d++ {
		if c := h.counts[d]; c != 0 {
			fn(uint64(d), c)
		}
	}
}

// MemBytes reports the resident size of the histogram's backing
// array — the footprint-accounting counterpart of the §5.6 stack
// metadata numbers.
func (h *Dense) MemBytes() uint64 { return uint64(cap(h.counts))*8 + 24 }

// Counts returns the per-distance counts, indexed by distance (index
// 0 is unused and always 0). The slice aliases the histogram's storage:
// read it only while nothing writes to h.
func (h *Dense) Counts() []uint64 { return h.counts }

// Clone returns an independent deep copy — the basis for
// non-destructive snapshot reads, where a correction or flush is
// applied to the copy while the live histogram keeps accumulating.
func (h *Dense) Clone() *Dense {
	out := &Dense{}
	out.CopyFrom(h)
	return out
}

// CopyFrom makes h an exact copy of src, reusing h's storage when it
// is large enough — one memmove, so a reader can copy a live histogram
// quickly under a lock and work on the copy after releasing it.
func (h *Dense) CopyFrom(src *Dense) {
	h.counts = append(h.counts[:0], src.counts...)
	h.cold, h.total = src.cold, src.total
}

// Reset empties h, keeping its storage for reuse.
func (h *Dense) Reset() {
	h.counts = h.counts[:0]
	h.cold, h.total = 0, 0
}

// Merge folds other into h.
func (h *Dense) Merge(other *Dense) {
	src := other.counts
	for len(src) > 0 && src[len(src)-1] == 0 {
		src = src[:len(src)-1]
	}
	if n := len(src) - len(h.counts); n > 0 {
		h.counts = append(h.counts, make([]uint64, n)...)
	}
	for d, c := range src {
		h.counts[d] += c
	}
	h.cold += other.cold
	h.total += other.total
}

const (
	logSubBits  = 6
	logSubCount = 1 << logSubBits // sub-buckets per octave
)

// Log is a logarithmic histogram: exact below logSubCount, then 64
// sub-buckets per power of two. Suitable for byte distances.
type Log struct {
	counts []uint64
	cold   uint64
	total  uint64
}

// NewLog returns an empty logarithmic histogram.
func NewLog() *Log { return &Log{} }

// logIndex maps a distance to its bucket index.
func logIndex(v uint64) int {
	if v < logSubCount {
		return int(v)
	}
	e := bits.Len64(v) - 1 // 2^e <= v < 2^(e+1), e >= logSubBits
	shift := uint(e - logSubBits)
	sub := int(v>>shift) - logSubCount
	return (e-logSubBits+1)*logSubCount + sub
}

// logLowerBound inverts logIndex to the smallest distance in a bucket.
func logLowerBound(idx int) uint64 {
	block := idx >> logSubBits
	sub := idx & (logSubCount - 1)
	if block == 0 {
		return uint64(sub)
	}
	// Saturate instead of overflowing for indexes past the top octave
	// (only reachable when asking for the bound of the bucket after the
	// one containing values near 1<<64).
	if block-1 >= 64-bits.Len64(uint64(logSubCount+sub))+1 {
		return ^uint64(0)
	}
	return uint64(logSubCount+sub) << uint(block-1)
}

// logRepresentative returns the midpoint of a bucket, used as the
// distance reported during iteration.
func logRepresentative(idx int) uint64 {
	lo := logLowerBound(idx)
	block := idx >> logSubBits
	if block == 0 {
		return lo
	}
	width := uint64(1) << uint(block-1)
	return lo + width/2
}

// Add records one finite distance.
func (h *Log) Add(distance uint64) {
	if distance == 0 {
		distance = 1
	}
	idx := logIndex(distance)
	for len(h.counts) <= idx {
		h.counts = append(h.counts, 0)
	}
	h.counts[idx]++
	h.total++
}

// AddN records count references at one finite distance.
func (h *Log) AddN(distance, count uint64) {
	if count == 0 {
		return
	}
	if distance == 0 {
		distance = 1
	}
	idx := logIndex(distance)
	for len(h.counts) <= idx {
		h.counts = append(h.counts, 0)
	}
	h.counts[idx] += count
	h.total += count
}

// AddCold records one cold miss.
func (h *Log) AddCold() {
	h.cold++
	h.total++
}

// Total returns the number of recorded references.
func (h *Log) Total() uint64 { return h.total }

// Cold returns the number of cold references.
func (h *Log) Cold() uint64 { return h.cold }

// Buckets iterates nonzero buckets in increasing distance order.
func (h *Log) Buckets(fn func(distance, count uint64)) {
	for idx, c := range h.counts {
		if c != 0 {
			fn(logRepresentative(idx), c)
		}
	}
}

// MemBytes reports the resident size of the histogram's backing array.
func (h *Log) MemBytes() uint64 { return uint64(cap(h.counts))*8 + 24 }

// Clone returns an independent deep copy.
func (h *Log) Clone() *Log {
	out := &Log{cold: h.cold, total: h.total}
	out.counts = append(out.counts, h.counts...)
	return out
}

// Merge folds other into h.
func (h *Log) Merge(other *Log) {
	for idx, c := range other.counts {
		if c == 0 {
			continue
		}
		for len(h.counts) <= idx {
			h.counts = append(h.counts, 0)
		}
		h.counts[idx] += c
	}
	h.cold += other.cold
	h.total += other.total
}
