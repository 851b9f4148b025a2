package redislike

import (
	"fmt"

	"krr/internal/trace"
	"krr/internal/xrand"
)

// LRU clock parameters, mirroring Redis's 24-bit object clock.
const (
	lruBits = 24
	lruMask = 1<<lruBits - 1
	// EvictionPoolSize matches Redis's EVPOOL_SIZE.
	EvictionPoolSize = 16
	// DefaultSamples matches Redis 5+'s default maxmemory-samples.
	DefaultSamples = 5
	// PerKeyOverhead approximates Redis's per-key bookkeeping cost
	// (dict entry + robj header) counted against maxmemory. Exported
	// so budget math outside the package (the experiments) matches
	// the engine's accounting.
	PerKeyOverhead = 48
	perKeyOverhead = PerKeyOverhead
)

// Policy selects the eviction policy, mirroring Redis's
// maxmemory-policy for the allkeys family.
type Policy uint8

// Policies.
const (
	// PolicyLRU is allkeys-lru: evict the sample's least recently
	// used key (the policy the paper models).
	PolicyLRU Policy = iota
	// PolicyRandom is allkeys-random: evict a uniformly random key —
	// the K=1 degenerate case of sampled LRU.
	PolicyRandom
	// PolicyLFU is allkeys-lfu: evict the sample's least frequently
	// used key, tracked with Redis's 8-bit logarithmic (Morris)
	// counter and idle-time decay.
	PolicyLFU
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyLRU:
		return "lru"
	case PolicyRandom:
		return "random"
	case PolicyLFU:
		return "lfu"
	default:
		return "policy?"
	}
}

// LFU counter parameters, mirroring Redis defaults.
const (
	lfuInitVal   = 5   // LFU_INIT_VAL: new keys start warm
	lfuLogFactor = 10  // lfu-log-factor
	lfuDecayTime = 600 // clock ticks per decay step (lfu-decay-time analogue)
)

// SamplingMode selects how eviction candidates are sampled.
type SamplingMode uint8

// Sampling modes.
const (
	// SampleSomeKeys is Redis's default dictGetSomeKeys bucket walk:
	// fast but bucket-correlated.
	SampleSomeKeys SamplingMode = iota
	// SampleRandomKey draws each candidate independently via
	// dictGetRandomKey: slower, good randomness (§5.7 footnote 3).
	SampleRandomKey
)

// Config shapes an Engine.
type Config struct {
	// MaxMemory is the eviction threshold in bytes (counting value
	// sizes plus per-key overhead). 0 disables eviction.
	MaxMemory uint64
	// Samples is maxmemory-samples (default 5).
	Samples int
	// Policy selects the eviction policy (default PolicyLRU).
	Policy Policy
	// Sampling selects the candidate sampler.
	Sampling SamplingMode
	// ClockResolution is how many commands share one LRU clock tick;
	// Redis ticks in wall-clock seconds, so many commands observe the
	// same clock value. 1 gives a perfect recency clock.
	ClockResolution int
	// Seed fixes the engine's randomness.
	Seed uint64
}

func (c *Config) fill() {
	if c.Samples <= 0 {
		c.Samples = DefaultSamples
	}
	if c.ClockResolution <= 0 {
		c.ClockResolution = 1
	}
}

// object is a stored value's metadata. Values themselves are not
// materialized — only their size is tracked, which is all the cache
// dynamics depend on.
type object struct {
	size uint32
	lru  uint32 // 24-bit clock value at last touch
	// lfu is Redis's 8-bit logarithmic access counter, maintained
	// only under PolicyLFU.
	lfu uint8
	// lfuTouched is the clock value of the last LFU decay check.
	lfuTouched uint32
}

// Stats counts engine activity.
type Stats struct {
	Hits, Misses, Sets, Dels, Evictions uint64
}

// Engine is the single-threaded cache core. Wrap it with Server for
// network access; serialize access externally if shared.
type Engine struct {
	cfg   Config
	dict  *dict
	src   *xrand.Source
	used  uint64
	ticks uint64
	stats Stats

	pool      evictionPool
	sampleBuf []*dictEntry
}

// NewEngine builds an engine.
func NewEngine(cfg Config) *Engine {
	cfg.fill()
	return &Engine{
		cfg:       cfg,
		dict:      newDict(),
		src:       xrand.New(cfg.Seed),
		sampleBuf: make([]*dictEntry, 0, cfg.Samples),
	}
}

// clock returns the current 24-bit LRU clock.
func (e *Engine) clock() uint32 {
	return uint32(e.ticks/uint64(e.cfg.ClockResolution)) & lruMask
}

// idleTime returns how many clock units ago obj was touched,
// accounting for 24-bit wraparound exactly as Redis does.
func (e *Engine) idleTime(obj *object) uint32 {
	now := e.clock()
	if now >= obj.lru {
		return now - obj.lru
	}
	return lruMask - obj.lru + now
}

// touch refreshes an object's recency clock and, under PolicyLFU, its
// logarithmic frequency counter.
func (e *Engine) touch(obj *object) {
	obj.lru = e.clock()
	if e.cfg.Policy == PolicyLFU {
		e.lfuDecay(obj)
		e.lfuIncrement(obj)
	}
}

// lfuDecay decrements the counter once per lfuDecayTime clock ticks
// elapsed since the last check (Redis's lfu-decay-time).
func (e *Engine) lfuDecay(obj *object) {
	now := e.clock()
	var elapsed uint32
	if now >= obj.lfuTouched {
		elapsed = now - obj.lfuTouched
	} else {
		elapsed = lruMask - obj.lfuTouched + now
	}
	steps := elapsed / lfuDecayTime
	if steps == 0 {
		return
	}
	if uint32(obj.lfu) > steps {
		obj.lfu -= uint8(steps)
	} else {
		obj.lfu = 0
	}
	obj.lfuTouched = now
}

// lfuIncrement applies Redis's probabilistic logarithmic increment:
// the counter rises with probability 1/((counter-init)·factor + 1),
// saturating at 255.
func (e *Engine) lfuIncrement(obj *object) {
	if obj.lfu == 255 {
		return
	}
	base := float64(obj.lfu) - lfuInitVal
	if base < 0 {
		base = 0
	}
	p := 1.0 / (base*lfuLogFactor + 1)
	if e.src.Float64() < p {
		obj.lfu++
	}
}

// evictionScore returns the pool metric for a candidate: higher means
// a better victim (Redis stores "idle" in the pool for both policies;
// for LFU it uses 255 - counter).
func (e *Engine) evictionScore(obj *object) uint32 {
	if e.cfg.Policy == PolicyLFU {
		e.lfuDecay(obj)
		return 255 - uint32(obj.lfu)
	}
	return e.idleTime(obj)
}

// SetSamples reconfigures maxmemory-samples online — the Redis
// CONFIG SET that the DLRU controller exploits (§1). k must be >= 1.
func (e *Engine) SetSamples(k int) {
	if k < 1 {
		k = 1
	}
	e.cfg.Samples = k
	if cap(e.sampleBuf) < k {
		e.sampleBuf = make([]*dictEntry, 0, k)
	}
}

// Samples returns the current maxmemory-samples.
func (e *Engine) Samples() int { return e.cfg.Samples }

// Policy returns the eviction policy in force.
func (e *Engine) Policy() Policy { return e.cfg.Policy }

// SetMaxMemory reconfigures the eviction threshold, evicting
// immediately if the new limit is already exceeded (0 disables).
func (e *Engine) SetMaxMemory(bytes uint64) {
	e.cfg.MaxMemory = bytes
	e.evictIfNeeded()
}

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// Len returns the number of stored keys.
func (e *Engine) Len() int { return e.dict.used }

// UsedMemory returns the tracked memory footprint.
func (e *Engine) UsedMemory() uint64 { return e.used }

// Get looks up key, touching its LRU clock. It returns the stored
// size and whether the key was present.
func (e *Engine) Get(key uint64) (uint32, bool) {
	e.ticks++
	if ent := e.dict.find(key); ent != nil {
		e.touch(ent.obj)
		e.pool.removeKey(key)
		e.stats.Hits++
		return ent.obj.size, true
	}
	e.stats.Misses++
	return 0, false
}

// Set stores key with a value of the given size, evicting as needed.
func (e *Engine) Set(key uint64, size uint32) {
	e.ticks++
	e.store(key, size)
}

// store implements Set without advancing the clock, so a cache-aside
// fill can share the tick of the Get that missed (one tick per
// request, the K-LRU simulator convention).
func (e *Engine) store(key uint64, size uint32) {
	e.stats.Sets++
	cost := uint64(size) + perKeyOverhead
	if prev := e.dict.find(key); prev != nil {
		e.used -= uint64(prev.obj.size) + perKeyOverhead
		prev.obj.size = size
		e.touch(prev.obj)
		e.used += cost
	} else {
		e.dict.set(key, &object{size: size, lru: e.clock(), lfu: lfuInitVal, lfuTouched: e.clock()})
		e.used += cost
	}
	// A just-written key is maximally fresh: drop any stale high-idle
	// pool entry left from before the touch (or from a prior life of a
	// randomly-evicted key), or the next eviction cycle could pick this
	// hot key on its stale score.
	e.pool.removeKey(key)
	e.evictIfNeeded()
}

// Del removes key, reporting whether it existed.
func (e *Engine) Del(key uint64) bool {
	e.ticks++
	obj := e.dict.del(key)
	if obj == nil {
		return false
	}
	e.stats.Dels++
	e.used -= uint64(obj.size) + perKeyOverhead
	e.pool.removeKey(key)
	return true
}

// Access adapts the engine to the cache-simulator request convention:
// a get that misses is followed by a set of the object (cache-aside
// fill), which is how the §5.7 validation replays traces against
// Redis.
func (e *Engine) Access(req trace.Request) bool {
	switch req.Op {
	case trace.OpDelete:
		e.Del(req.Key)
		return false
	case trace.OpSet:
		e.Set(req.Key, req.Size)
		return false
	default:
		if _, ok := e.Get(req.Key); ok {
			return true
		}
		// The fill shares the missing Get's tick: one clock advance
		// per request, not two, so idle times on miss-heavy traces
		// match the simulator convention.
		e.store(req.Key, req.Size)
		return false
	}
}

// poolEntry is one eviction-pool slot.
type poolEntry struct {
	key  uint64
	idle uint32
	used bool
}

// evictionPool mirrors Redis's EVPOOL: a small array kept sorted by
// idle time ascending; the best eviction candidate (largest idle) sits
// at the highest used index. Candidates persist across eviction
// cycles, which lets good victims found in earlier samples survive to
// later decisions.
type evictionPool struct {
	slots [EvictionPoolSize]poolEntry
}

// offer inserts a candidate, keeping the array sorted by idle time and
// dropping the smallest-idle entry on overflow. Duplicate keys update
// in place.
func (p *evictionPool) offer(key uint64, idle uint32) {
	p.removeKey(key)
	// Find insertion point among used slots (sorted ascending by idle).
	n := 0
	for n < EvictionPoolSize && p.slots[n].used {
		n++
	}
	pos := 0
	for pos < n && p.slots[pos].idle < idle {
		pos++
	}
	if n == EvictionPoolSize {
		if pos == 0 {
			return // worse than every current candidate
		}
		// Shift left, dropping slot 0.
		copy(p.slots[0:], p.slots[1:pos])
		p.slots[pos-1] = poolEntry{key: key, idle: idle, used: true}
		return
	}
	copy(p.slots[pos+1:n+1], p.slots[pos:n])
	p.slots[pos] = poolEntry{key: key, idle: idle, used: true}
}

// takeBest pops the highest-idle candidate, or returns false.
func (p *evictionPool) takeBest() (uint64, bool) {
	for i := EvictionPoolSize - 1; i >= 0; i-- {
		if p.slots[i].used {
			key := p.slots[i].key
			p.slots[i].used = false
			return key, true
		}
	}
	return 0, false
}

// removeKey drops a key from the pool (after deletion or update).
func (p *evictionPool) removeKey(key uint64) {
	n := 0
	for n < EvictionPoolSize && p.slots[n].used {
		n++
	}
	for i := 0; i < n; i++ {
		if p.slots[i].key == key {
			copy(p.slots[i:], p.slots[i+1:n])
			p.slots[n-1].used = false
			return
		}
	}
}

// evictIfNeeded implements Redis's approximated eviction loop: while
// over maxmemory, sample keys, feed the eviction pool (scored by the
// active policy), and delete the pool's best candidate. allkeys-random
// skips the pool and deletes a random key directly, as Redis does.
func (e *Engine) evictIfNeeded() {
	if e.cfg.MaxMemory == 0 {
		return
	}
	for e.used > e.cfg.MaxMemory && e.dict.used > 0 {
		if e.cfg.Policy == PolicyRandom {
			var ent *dictEntry
			if e.cfg.Sampling == SampleRandomKey {
				ent = e.dict.randomKey(e.src)
			} else if got := e.dict.someKeys(e.src, 1, e.sampleBuf); len(got) > 0 {
				ent = got[0]
			}
			if ent == nil {
				return
			}
			e.used -= uint64(ent.obj.size) + perKeyOverhead
			e.dict.del(ent.key)
			e.stats.Evictions++
			continue
		}
		e.samplePool()
		key, ok := e.pool.takeBest()
		if !ok {
			continue // resample
		}
		ent := e.dict.find(key)
		if ent == nil {
			continue // stale pool entry
		}
		e.used -= uint64(ent.obj.size) + perKeyOverhead
		e.dict.del(key)
		e.stats.Evictions++
	}
}

// samplePool draws Samples candidates and offers them to the pool.
func (e *Engine) samplePool() {
	switch e.cfg.Sampling {
	case SampleRandomKey:
		for i := 0; i < e.cfg.Samples; i++ {
			if ent := e.dict.randomKey(e.src); ent != nil {
				e.pool.offer(ent.key, e.evictionScore(ent.obj))
			}
		}
	default:
		e.sampleBuf = e.dict.someKeys(e.src, e.cfg.Samples, e.sampleBuf)
		for _, ent := range e.sampleBuf {
			e.pool.offer(ent.key, e.evictionScore(ent.obj))
		}
	}
}

// Info renders a small INFO-style summary.
func (e *Engine) Info() string {
	return fmt.Sprintf(
		"used_memory:%d\nmaxmemory:%d\nkeys:%d\nkeyspace_hits:%d\nkeyspace_misses:%d\nevicted_keys:%d\n",
		e.used, e.cfg.MaxMemory, e.dict.used, e.stats.Hits, e.stats.Misses, e.stats.Evictions)
}
