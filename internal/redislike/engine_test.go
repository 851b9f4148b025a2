package redislike

import (
	"math"
	"testing"

	"krr/internal/trace"
	"krr/internal/workload"
	"krr/internal/xrand"
)

func TestDictBasics(t *testing.T) {
	d := newDict()
	if d.find(1) != nil {
		t.Fatal("empty dict found a key")
	}
	d.set(1, &object{size: 10})
	d.set(2, &object{size: 20})
	if d.used != 2 {
		t.Fatalf("used = %d", d.used)
	}
	if e := d.find(1); e == nil || e.obj.size != 10 {
		t.Fatal("find failed")
	}
	if prev := d.set(1, &object{size: 15}); prev == nil || prev.size != 10 {
		t.Fatal("replace must return previous object")
	}
	if d.used != 2 {
		t.Fatal("replace must not grow used")
	}
	if obj := d.del(1); obj == nil || obj.size != 15 {
		t.Fatal("del must return the object")
	}
	if d.del(1) != nil {
		t.Fatal("double delete must return nil")
	}
	if d.used != 1 {
		t.Fatalf("used = %d after delete", d.used)
	}
}

func TestDictGrowPreservesEntries(t *testing.T) {
	d := newDict()
	const n = 10000
	for k := uint64(0); k < n; k++ {
		d.set(k, &object{size: uint32(k)})
	}
	if d.used != n {
		t.Fatalf("used = %d", d.used)
	}
	for k := uint64(0); k < n; k++ {
		e := d.find(k)
		if e == nil || e.obj.size != uint32(k) {
			t.Fatalf("key %d lost after growth", k)
		}
	}
	count := 0
	d.forEach(func(*dictEntry) { count++ })
	if count != n {
		t.Fatalf("forEach visited %d", count)
	}
}

func TestDictSomeKeys(t *testing.T) {
	d := newDict()
	for k := uint64(0); k < 1000; k++ {
		d.set(k, &object{})
	}
	src := xrand.New(1)
	out := d.someKeys(src, 5, nil)
	if len(out) != 5 {
		t.Fatalf("someKeys returned %d", len(out))
	}
	for _, e := range out {
		if d.find(e.key) == nil {
			t.Fatal("sampled key not in dict")
		}
	}
	if got := d.someKeys(src, 0, out); len(got) != 0 {
		t.Fatal("count 0 must return empty")
	}
	empty := newDict()
	if got := empty.someKeys(src, 5, nil); len(got) != 0 {
		t.Fatal("empty dict must return no samples")
	}
}

func TestDictRandomKeyCoverage(t *testing.T) {
	d := newDict()
	const n = 50
	for k := uint64(0); k < n; k++ {
		d.set(k, &object{})
	}
	src := xrand.New(2)
	seen := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		seen[d.randomKey(src).key] = true
	}
	if len(seen) != n {
		t.Fatalf("randomKey covered %d of %d keys", len(seen), n)
	}
	if newDict().randomKey(src) != nil {
		t.Fatal("empty dict must return nil")
	}
}

func TestEvictionPoolOrdering(t *testing.T) {
	var p evictionPool
	p.offer(1, 10)
	p.offer(2, 30)
	p.offer(3, 20)
	key, ok := p.takeBest()
	if !ok || key != 2 {
		t.Fatalf("best = %d, want key 2 (idle 30)", key)
	}
	key, _ = p.takeBest()
	if key != 3 {
		t.Fatalf("second best = %d, want 3", key)
	}
}

func TestEvictionPoolOverflow(t *testing.T) {
	var p evictionPool
	for i := uint64(0); i < EvictionPoolSize; i++ {
		p.offer(i, uint32(i)+100)
	}
	// Worse than everything: rejected.
	p.offer(99, 1)
	for i := 0; i < EvictionPoolSize; i++ {
		k, ok := p.takeBest()
		if !ok {
			t.Fatal("pool drained early")
		}
		if k == 99 {
			t.Fatal("worst candidate must have been rejected")
		}
	}
	// Better than everything: replaces the lowest.
	for i := uint64(0); i < EvictionPoolSize; i++ {
		p.offer(i, uint32(i)+100)
	}
	p.offer(77, 9999)
	k, _ := p.takeBest()
	if k != 77 {
		t.Fatalf("best = %d, want 77", k)
	}
}

func TestEvictionPoolDuplicateAndRemove(t *testing.T) {
	var p evictionPool
	p.offer(5, 10)
	p.offer(5, 50)
	k, _ := p.takeBest()
	if k != 5 {
		t.Fatal("pool lost the key")
	}
	if _, ok := p.takeBest(); ok {
		t.Fatal("duplicate offer must not duplicate the entry")
	}
	p.offer(6, 10)
	p.removeKey(6)
	if _, ok := p.takeBest(); ok {
		t.Fatal("removed key must not be returned")
	}
}

func TestEngineGetSetDel(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	if _, ok := e.Get(1); ok {
		t.Fatal("empty engine hit")
	}
	e.Set(1, 100)
	if size, ok := e.Get(1); !ok || size != 100 {
		t.Fatalf("get = %d,%v", size, ok)
	}
	if !e.Del(1) || e.Del(1) {
		t.Fatal("del semantics wrong")
	}
	st := e.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Sets != 1 || st.Dels != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestEngineMemoryAccounting(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	e.Set(1, 100)
	want := uint64(100 + perKeyOverhead)
	if e.UsedMemory() != want {
		t.Fatalf("used = %d, want %d", e.UsedMemory(), want)
	}
	e.Set(1, 50) // shrink in place
	want = 50 + perKeyOverhead
	if e.UsedMemory() != want {
		t.Fatalf("after shrink: used = %d, want %d", e.UsedMemory(), want)
	}
	e.Del(1)
	if e.UsedMemory() != 0 {
		t.Fatalf("after delete: used = %d", e.UsedMemory())
	}
}

func TestEngineEvictsUnderMaxMemory(t *testing.T) {
	const maxMem = 50 * (100 + perKeyOverhead)
	e := NewEngine(Config{MaxMemory: maxMem, Seed: 3})
	for k := uint64(0); k < 500; k++ {
		e.Set(k, 100)
		if e.UsedMemory() > maxMem {
			t.Fatalf("used %d exceeds maxmemory after set %d", e.UsedMemory(), k)
		}
	}
	if e.Len() == 0 || e.Len() > 50 {
		t.Fatalf("resident keys %d implausible", e.Len())
	}
	if e.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestEngineEvictsColdKeys(t *testing.T) {
	// Keep half the keys hot; evictions should fall mostly on the
	// cold half — the essence of approximated LRU.
	const keys = 200
	const maxMem = keys * (100 + perKeyOverhead)
	e := NewEngine(Config{MaxMemory: maxMem, Seed: 5})
	for k := uint64(0); k < keys; k++ {
		e.Set(k, 100)
	}
	// Touch the hot half repeatedly.
	for round := 0; round < 20; round++ {
		for k := uint64(0); k < keys/2; k++ {
			e.Get(k)
		}
	}
	// Insert new keys to force evictions.
	for k := uint64(1000); k < 1000+keys/2; k++ {
		e.Set(k, 100)
	}
	hotSurvivors := 0
	for k := uint64(0); k < keys/2; k++ {
		if _, ok := e.Get(k); ok {
			hotSurvivors++
		}
	}
	if hotSurvivors < keys/2*8/10 {
		t.Fatalf("only %d/%d hot keys survived eviction", hotSurvivors, keys/2)
	}
}

func TestIdleTimeWraparound(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	obj := &object{lru: lruMask - 5}
	e.ticks = uint64(lruMask) + 11 // clock wrapped to 10
	if got := e.idleTime(obj); got != 15 {
		t.Fatalf("wrapped idle = %d, want 15", got)
	}
}

func TestClockResolutionCoarsens(t *testing.T) {
	e := NewEngine(Config{Seed: 1, ClockResolution: 100})
	c0 := e.clock()
	for i := 0; i < 50; i++ {
		e.Set(uint64(i), 1)
	}
	if e.clock() != c0 {
		t.Fatal("clock must not advance within one resolution window")
	}
	for i := 0; i < 100; i++ {
		e.Set(uint64(i+100), 1)
	}
	if e.clock() == c0 {
		t.Fatal("clock must advance across windows")
	}
}

func TestAccessCacheAside(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	if e.Access(trace.Request{Key: 1, Size: 10, Op: trace.OpGet}) {
		t.Fatal("first access must miss")
	}
	if !e.Access(trace.Request{Key: 1, Size: 10, Op: trace.OpGet}) {
		t.Fatal("second access must hit (miss fills)")
	}
	if e.Access(trace.Request{Key: 1, Size: 10, Op: trace.OpSet}) {
		t.Fatal("set never reports a hit")
	}
	e.Access(trace.Request{Key: 1, Op: trace.OpDelete})
	if e.Len() != 0 {
		t.Fatal("delete must remove")
	}
}

// missRatio replays a trace through an engine with the given config.
func missRatio(tr *trace.Trace, cfg Config) float64 {
	e := NewEngine(cfg)
	var hits, total int
	r := tr.Reader()
	for {
		req, err := r.Next()
		if err != nil {
			break
		}
		if req.Op == trace.OpDelete {
			e.Access(req)
			continue
		}
		total++
		if e.Access(req) {
			hits++
		}
	}
	return 1 - float64(hits)/float64(total)
}

func TestEngineMatchesIdealKLRUSimulator(t *testing.T) {
	// §5.7: the engine's miss ratio should be close to an idealized
	// K-LRU simulator at the same object budget, and the good-random
	// sampling mode should be at least as close as the biased default.
	g := workload.NewZipf(7, 5000, 0.9, nil, 0)
	tr, _ := trace.Collect(g, 100000)

	const residentObjects = 1000
	const objCost = 200 + perKeyOverhead
	cfg := Config{MaxMemory: residentObjects * objCost, Samples: 5, Seed: 9}

	biased := missRatio(tr, cfg)
	cfgGood := cfg
	cfgGood.Sampling = SampleRandomKey
	good := missRatio(tr, cfgGood)

	// Idealized simulator at the same object capacity.
	ideal := simulateKLRUMiss(tr, residentObjects, 5, 31)

	if math.Abs(good-ideal) > 0.03 {
		t.Fatalf("good-random engine %v vs ideal K-LRU %v", good, ideal)
	}
	if math.Abs(biased-ideal) > 0.08 {
		t.Fatalf("biased engine %v too far from ideal %v", biased, ideal)
	}
}

func simulateKLRUMiss(tr *trace.Trace, capObjects, k int, seed uint64) float64 {
	type ent struct {
		key  uint64
		last uint64
	}
	src := xrand.New(seed)
	var ents []ent
	idx := map[uint64]int{}
	var clock uint64
	var hits, total int
	r := tr.Reader()
	for {
		req, err := r.Next()
		if err != nil {
			break
		}
		clock++
		total++
		if i, ok := idx[req.Key]; ok {
			ents[i].last = clock
			hits++
			continue
		}
		if len(ents) >= capObjects {
			victim := int(src.Uint64n(uint64(len(ents))))
			for j := 1; j < k; j++ {
				cand := int(src.Uint64n(uint64(len(ents))))
				if ents[cand].last < ents[victim].last {
					victim = cand
				}
			}
			delete(idx, ents[victim].key)
			lastI := len(ents) - 1
			if victim != lastI {
				ents[victim] = ents[lastI]
				idx[ents[victim].key] = victim
			}
			ents = ents[:lastI]
		}
		idx[req.Key] = len(ents)
		ents = append(ents, ent{key: req.Key, last: clock})
	}
	return 1 - float64(hits)/float64(total)
}

func BenchmarkEngineAccess(b *testing.B) {
	e := NewEngine(Config{MaxMemory: 1 << 22, Seed: 1})
	g := workload.NewZipf(3, 1<<16, 1.0, nil, 0)
	reqs := make([]trace.Request, 1<<16)
	for i := range reqs {
		reqs[i], _ = g.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Access(reqs[i&(1<<16-1)])
	}
}

// TestAccessMissSingleTick pins the one-tick-per-request convention:
// the cache-aside fill after a missing Get must share the Get's clock
// advance, or idle times on miss-heavy traces run twice as fast as
// the K-LRU simulator the §5.7 validation compares against.
func TestAccessMissSingleTick(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	cases := []struct {
		req  trace.Request
		want uint64
	}{
		{trace.Request{Key: 1, Size: 100, Op: trace.OpGet}, 1}, // miss + fill
		{trace.Request{Key: 1, Size: 100, Op: trace.OpGet}, 2}, // hit
		{trace.Request{Key: 2, Size: 100, Op: trace.OpSet}, 3}, // explicit set
		{trace.Request{Key: 2, Op: trace.OpDelete}, 4},         // delete
		{trace.Request{Key: 2, Size: 100, Op: trace.OpGet}, 5}, // miss + fill again
	}
	for i, c := range cases {
		e.Access(c.req)
		if e.ticks != c.want {
			t.Fatalf("case %d: ticks = %d, want %d", i, e.ticks, c.want)
		}
	}
}

// poolHolds reports whether the eviction pool has an entry for key.
func poolHolds(p *evictionPool, key uint64) bool {
	for _, s := range p.slots {
		if s.used && s.key == key {
			return true
		}
	}
	return false
}

// TestTouchedKeyLeavesEvictionPool pins the stale-candidate fix: a key
// sitting in the eviction pool with a high recorded idle time must be
// dropped when a Get or Set refreshes it, or the next eviction cycle
// can evict a hot key on its stale score.
func TestTouchedKeyLeavesEvictionPool(t *testing.T) {
	e := NewEngine(Config{Seed: 1})
	e.Set(7, 100)
	e.Set(8, 100)

	e.pool.offer(7, 500)
	e.pool.offer(8, 500)
	if !poolHolds(&e.pool, 7) || !poolHolds(&e.pool, 8) {
		t.Fatal("pool setup failed")
	}
	if _, ok := e.Get(7); !ok {
		t.Fatal("key 7 missing")
	}
	if poolHolds(&e.pool, 7) {
		t.Fatal("Get hit left key 7 in the eviction pool with a stale idle time")
	}
	e.Set(8, 120)
	if poolHolds(&e.pool, 8) {
		t.Fatal("Set on existing key left key 8 in the eviction pool with a stale idle time")
	}
}

// TestSetSamplesTakesEffectAtNextEviction checks that an online
// SetSamples — what CONFIG SET maxmemory-samples and the DLRU
// controller call — changes the very next eviction. The engine starts
// at K=1; after SetSamples(1024) each eviction sees every key, so the
// victims are exactly the oldest keys in age order, which K=1 would
// almost never produce.
func TestSetSamplesTakesEffectAtNextEviction(t *testing.T) {
	const keys = 64
	e := NewEngine(Config{
		MaxMemory: keys * (100 + perKeyOverhead),
		Samples:   1,
		Sampling:  SampleRandomKey,
		Seed:      1,
	})
	for k := uint64(0); k < keys; k++ {
		e.Set(k, 100)
	}
	e.SetSamples(1024)
	for i := uint64(0); i < 8; i++ {
		e.Set(1000+i, 100)
		if e.dict.find(i) != nil {
			t.Fatalf("eviction %d kept key %d, the oldest", i, i)
		}
	}
	for k := uint64(8); k < keys; k++ {
		if e.dict.find(k) == nil {
			t.Fatalf("key %d evicted ahead of older keys", k)
		}
	}
}

// TestEngineDeterministicUnderSeed checks that two engines with the
// same config and seed replay a trace to identical state under every
// policy: the §5.7 curves are only reproducible if they do.
func TestEngineDeterministicUnderSeed(t *testing.T) {
	reqs, err := trace.Collect(workload.NewZipf(5, 3000, 1.0, nil, 0), 20_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{PolicyLRU, PolicyLFU, PolicyRandom} {
		cfg := Config{MaxMemory: 1000 * (trace.DefaultObjectSize + perKeyOverhead), Policy: p, Seed: 9}
		a, b := NewEngine(cfg), NewEngine(cfg)
		for _, req := range reqs.Reqs {
			if a.Access(req) != b.Access(req) {
				t.Fatalf("%v: engines diverged at the same request", p)
			}
		}
		if a.Stats() != b.Stats() || a.UsedMemory() != b.UsedMemory() {
			t.Fatalf("%v: state diverged: %+v vs %+v", p, a.Stats(), b.Stats())
		}
		if a.Stats().Evictions == 0 {
			t.Fatalf("%v: no evictions; the trace does not exercise eviction", p)
		}
	}
}
