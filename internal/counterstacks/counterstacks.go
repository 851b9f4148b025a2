// Package counterstacks implements a compact Counter Stacks model
// (Wires et al., OSDI '14), the third exact-LRU MRC baseline from the
// paper's related work (§6.1): the LRU stack distance of a reference
// is the number of distinct keys seen since its previous occurrence,
// so a set of probabilistic cardinality counters started at staggered
// times recovers the whole stack-distance distribution from counter
// increments alone — no stack, no per-object metadata.
package counterstacks

import (
	"krr/internal/hashing"
	"krr/internal/histogram"
	"krr/internal/hll"
	"krr/internal/trace"
)

// Config shapes a Stack.
type Config struct {
	// DownsampleInterval is how many requests share one counter start
	// and one finite-difference evaluation (the paper's d). Larger
	// values cost less and blur distances more. Default 1000.
	DownsampleInterval int
	// MaxCounters bounds memory: when exceeded, the two adjacent
	// counters with the closest counts are merged (the paper's
	// pruning). The oldest counter is never pruned, keeping the cold
	// classification exact. Default 64.
	MaxCounters int
}

func (c *Config) fill() {
	if c.DownsampleInterval <= 0 {
		c.DownsampleInterval = 1000
	}
	if c.MaxCounters < 4 {
		c.MaxCounters = 64
	}
}

// hllPrecision gives each counter 2^14 registers, ~0.8% standard
// error. Counter Stacks subtracts estimates taken one batch apart, so
// the counters' absolute noise must stay small relative to the
// per-batch increment; the extra registers (16 KiB/counter) buy that
// headroom.
const hllPrecision = 14

// counter is one staggered cardinality counter.
type counter struct {
	sketch    *hll.Sketch
	lastCount float64 // estimate at the previous batch boundary
}

func newCounter() *counter { return &counter{sketch: hll.New(hllPrecision)} }

// Stack is the Counter Stacks model.
type Stack struct {
	cfg      Config
	counters []*counter // oldest first
	hist     *histogram.Log
	pending  int // requests in the current batch
}

// New builds a Counter Stacks model.
func New(cfg Config) *Stack {
	cfg.fill()
	s := &Stack{cfg: cfg, hist: histogram.NewLog()}
	s.counters = append(s.counters, newCounter()) // the permanent oldest counter
	return s
}

// Process feeds one request. Deletes are ignored: cardinality
// counters cannot un-count a key, which the original system accepts
// (deletions are rare in the storage traces it targets).
func (s *Stack) Process(req trace.Request) {
	if req.Op == trace.OpDelete {
		return
	}
	h := hashing.Mix64(req.Key)
	for _, c := range s.counters {
		c.sketch.Add(h)
	}
	s.pending++
	if s.pending >= s.cfg.DownsampleInterval {
		s.finishBatch()
	}
}

// finishBatch evaluates finite differences and starts a new counter.
func (s *Stack) finishBatch() {
	n := len(s.counters)
	counts := make([]float64, n)
	deltas := make([]float64, n)
	batch := float64(s.pending)
	for i, c := range s.counters {
		counts[i] = c.sketch.Estimate()
		deltas[i] = counts[i] - c.lastCount
		// Clamp HLL noise into the feasible range.
		if deltas[i] < 0 {
			deltas[i] = 0
		}
		if deltas[i] > batch {
			deltas[i] = batch
		}
	}
	// A key new to a counter is new to every younger counter, so the
	// true per-batch increments are non-decreasing from oldest to
	// newest. Enforcing that with a running max removes the upward
	// bias that independently clamping each adjacent difference would
	// introduce (spurious positive diffs from estimate noise).
	for i := 1; i < n; i++ {
		if deltas[i] < deltas[i-1] {
			deltas[i] = deltas[i-1]
		}
	}
	// Requests whose previous occurrence lies between the starts of
	// counters i (older) and i+1 (newer) incremented i+1 but not i;
	// their stack distances lie between the two counters' distinct
	// counts. Spread the mass uniformly across that interval — after
	// pruning, adjacent counters can be far apart, and a point mass
	// would put a cliff in the curve.
	for i := 0; i < n-1; i++ {
		units := int(deltas[i+1] - deltas[i] + 0.5)
		lo, hi := counts[i+1], counts[i]
		if hi < lo {
			hi = lo
		}
		for j := 0; j < units; j++ {
			frac := (float64(j) + 0.5) / float64(units)
			s.hist.Add(uint64(lo + frac*(hi-lo) + 0.5))
		}
	}
	// Requests new even to the oldest counter are cold (the oldest
	// counter starts with the stream).
	for d := deltas[0]; d >= 1; d-- {
		s.hist.AddCold()
	}
	// Requests not new to the newest counter reused within the batch:
	// distance is at most the newest counter's within-batch growth;
	// approximate with half the batch's distinct growth.
	intra := batch - deltas[n-1]
	for d := intra; d >= 1; d-- {
		s.hist.Add(uint64(deltas[n-1]/2) + 1)
	}

	for i, c := range s.counters {
		c.lastCount = counts[i]
	}
	s.counters = append(s.counters, newCounter())
	s.pending = 0
	s.pruneIfNeeded()
}

// pruneIfNeeded merges the adjacent pair with the closest counts
// (their windows have converged, so they carry redundant
// information), never touching the oldest counter.
func (s *Stack) pruneIfNeeded() {
	for len(s.counters) > s.cfg.MaxCounters {
		bestIdx, bestGap := -1, 0.0
		for i := 1; i < len(s.counters)-1; i++ {
			// Relative gap keeps the retained counters geometrically
			// spaced, bounding the per-distance relative error.
			gap := (s.counters[i].lastCount - s.counters[i+1].lastCount) /
				(s.counters[i].lastCount + 1)
			if bestIdx == -1 || gap < bestGap {
				bestIdx, bestGap = i, gap
			}
		}
		if bestIdx < 0 {
			return
		}
		// Drop the newer of the pair: the older one's window covers it.
		s.counters = append(s.counters[:bestIdx+1], s.counters[bestIdx+2:]...)
	}
}

// MemoryOverheadBytes estimates the model's resident metadata: the HLL
// register arrays (the dominant term) plus the histogram.
func (s *Stack) MemoryOverheadBytes() uint64 {
	const perCounter = 1<<hllPrecision + 16 // registers + lastCount + pointer
	return uint64(len(s.counters))*perCounter + s.hist.MemBytes()
}

// SnapshotHist returns the stack-distance histogram the model would
// hold if the stream ended now, without committing the current partial
// batch: the batch is evaluated on a deep copy of the counters and
// histogram, leaving the live state untouched so Process may continue.
// With no partial batch pending it returns the live histogram itself,
// which the caller must not modify.
func (s *Stack) SnapshotHist() *histogram.Log {
	if s.pending == 0 {
		return s.hist
	}
	clone := &Stack{
		cfg:      s.cfg,
		counters: make([]*counter, len(s.counters)),
		hist:     s.hist.Clone(),
		pending:  s.pending,
	}
	for i, c := range s.counters {
		clone.counters[i] = &counter{sketch: c.sketch.Clone(), lastCount: c.lastCount}
	}
	clone.finishBatch()
	return clone.hist
}
