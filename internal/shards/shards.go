// Package shards implements bounded-memory SHARDS (Waldspurger et
// al., FAST '15), the spatially-sampled exact-LRU MRC approximation the
// paper uses both as its sampling technique (§2.4) and as the baseline
// LRU model KRR's runtime is compared against (Table 5.4).
//
// FixedSize is SHARDS_adj's bounded-memory mode: the threshold is
// lowered whenever the sample set exceeds sMax, evicting keys whose
// hash no longer qualifies; each distance is rescaled by the rate in
// force when it was recorded. Fixed-rate SHARDS needs no kernel of its
// own: it is the olken stack behind the model layer's spatial filter,
// and the shards model in internal/model applies the SHARDS_adj count
// correction there.
package shards

import (
	"krr/internal/hashing"
	"krr/internal/mrc"
	"krr/internal/olken"
	"krr/internal/sampling"
	"krr/internal/trace"
)

// FixedSize is bounded-memory SHARDS: at most sMax sampled objects are
// tracked, with the sampling threshold lowered as needed.
//
// Both per-request structures are flat. Recorded weights accumulate in
// a dense array indexed by rescaled distance (the index range is the
// working-set scale every dense-histogram model pays), and threshold
// shrinks pop a lazy max-heap over the sample set's hashes — the two
// map-driven paths (per-reference map assignment plus a full sample
// scan on every over-cap insert) that used to dominate the model's
// per-request cost.
type FixedSize struct {
	sMax      int
	threshold uint64 // current T; sampling condition hash mod P < T
	stack     *olken.Stack
	hashes    map[uint64]uint64 // key -> hash mod P, for liveness
	// byHash is a max-heap of (hash, key) over the live sample set.
	// Entries are pushed once per residency and stale entries (keys
	// already evicted or deleted) are discarded lazily on pop, so a
	// threshold shrink costs O(log sMax) amortized per evicted key.
	byHash []hashEntry
	// hist accumulates weight per rescaled distance; weights are 1/R
	// at record time since one sampled reference stands for 1/R
	// unsampled ones. Grown on demand.
	hist   []float64
	coldW  float64
	totalW float64
}

// hashEntry orders the live sample set by hash for threshold shrinks.
type hashEntry struct{ h, key uint64 }

// NewFixedSize builds a fixed-size SHARDS model starting at rate
// startRate with a cap of sMax tracked objects.
func NewFixedSize(startRate float64, sMax int, seed uint64) *FixedSize {
	if startRate <= 0 || startRate > 1 {
		panic("shards: startRate must be in (0, 1]")
	}
	if sMax < 2 {
		panic("shards: sMax must be >= 2")
	}
	return &FixedSize{
		sMax:      sMax,
		threshold: uint64(startRate*sampling.Modulus + 0.5),
		stack:     olken.New(seed),
		hashes:    make(map[uint64]uint64),
	}
}

// Rate returns the current effective sampling rate.
func (s *FixedSize) Rate() float64 {
	return float64(s.threshold) / sampling.Modulus
}

// MemoryOverheadBytes estimates the model's resident metadata: the
// bounded Olken stack, the liveness map, the shrink heap and the dense
// weight array.
func (s *FixedSize) MemoryOverheadBytes() uint64 {
	const perEntry = 48 // hashes map entry
	return s.stack.MemoryOverheadBytes() +
		uint64(len(s.hashes))*perEntry +
		uint64(cap(s.byHash))*16 +
		uint64(cap(s.hist))*8
}

// Process feeds one request and reports whether it passed the
// sampling threshold in force when it arrived.
func (s *FixedSize) Process(req trace.Request) bool {
	h := hashing.Mix64(req.Key) % sampling.Modulus
	if h >= s.threshold {
		return false
	}
	if req.Op == trace.OpDelete {
		if s.stack.Delete(req.Key) {
			delete(s.hashes, req.Key)
		}
		return true
	}
	rate := s.Rate()
	res := s.stack.Reference(req.Key, req.Size)
	w := 1 / rate
	s.totalW += w
	if res.Cold {
		// A key's hash never changes, so one (hash, key) pair per
		// residency is enough for the shrink heap.
		s.hashes[req.Key] = h
		s.pushHash(hashEntry{h: h, key: req.Key})
		s.coldW += w
		s.shrinkIfNeeded()
		return true
	}
	d := uint64(float64(res.Distance)/rate + 0.5)
	if d == 0 {
		d = 1
	}
	if need := int(d) + 1; need > len(s.hist) {
		s.hist = append(s.hist, make([]float64, need-len(s.hist))...)
	}
	s.hist[d] += w
	return true
}

// shrinkIfNeeded lowers the threshold until the sample set fits sMax,
// evicting objects whose hash no longer qualifies. The new threshold
// is the maximum resident hash (an exclusive bound, so the key(s)
// holding it always leave), read off the heap top after discarding
// stale entries.
func (s *FixedSize) shrinkIfNeeded() {
	for s.stack.Len() > s.sMax {
		for {
			if _, live := s.hashes[s.byHash[0].key]; live {
				break
			}
			s.popHash()
		}
		s.threshold = s.byHash[0].h
		for len(s.byHash) > 0 && s.byHash[0].h >= s.threshold {
			e := s.popHash()
			if _, live := s.hashes[e.key]; live {
				s.stack.Delete(e.key)
				delete(s.hashes, e.key)
			}
		}
	}
}

// pushHash adds an entry to the byHash max-heap.
func (s *FixedSize) pushHash(e hashEntry) {
	s.byHash = append(s.byHash, e)
	i := len(s.byHash) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s.byHash[parent].h >= s.byHash[i].h {
			break
		}
		s.byHash[parent], s.byHash[i] = s.byHash[i], s.byHash[parent]
		i = parent
	}
}

// popHash removes and returns the maximum-hash entry.
func (s *FixedSize) popHash() hashEntry {
	top := s.byHash[0]
	n := len(s.byHash) - 1
	s.byHash[0] = s.byHash[n]
	s.byHash = s.byHash[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s.byHash[r].h > s.byHash[c].h {
			c = r
		}
		if s.byHash[i].h >= s.byHash[c].h {
			break
		}
		s.byHash[i], s.byHash[c] = s.byHash[c], s.byHash[i]
		i = c
	}
	return top
}

// MRC returns the approximated exact-LRU curve.
func (s *FixedSize) MRC() *mrc.Curve {
	if s.totalW == 0 {
		return &mrc.Curve{Sizes: []uint64{0}, Miss: []float64{1}, Interp: mrc.InterpStep}
	}
	c := &mrc.Curve{Sizes: []uint64{0}, Miss: []float64{1}, Interp: mrc.InterpStep}
	var cum float64
	for d, w := range s.hist {
		if w == 0 {
			continue
		}
		cum += w
		c.Sizes = append(c.Sizes, uint64(d))
		c.Miss = append(c.Miss, clamp01(1-cum/s.totalW))
	}
	return c
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
