package redislike

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"krr/internal/dlru"
	"krr/internal/telemetry"
	"krr/internal/trace"
)

// This file implements a ChampSim-style set-dueling policy tournament
// (DRRIP's PSEL counters generalized to N rivals, AMPT's multi-policy
// epochs) on top of the redislike engine. A set-associative cache
// duels on sets; a hash-table cache duels on *key partitions*: the top
// PartitionBits of the key hash split the keyspace into 2^bits
// statistically identical slices, the first len(Rivals) of which are
// leader partitions — miniature engines pinned to one rival
// configuration each, with a proportional share of the memory budget.
// Every other partition belongs to the follower engine, which is
// steered to whichever rival currently holds the highest saturating
// PSEL win counter. Because sampling-based eviction has no rigid
// ordering structure (§1), the follower can flip both its sampling
// size K and its policy online without any state migration.
//
// A dlru.Controller in advisory mode rides along as a second judge:
// its per-K KRR shadow profilers predict, from live MRC snapshots,
// which sampling size a K-LRU cache of the same budget *should*
// prefer, and the duel records whether the empirical PSEL winner
// agrees — an online audit of the tournament against the model.

// Duel defaults.
const (
	// DefaultPartitionBits gives 64 partitions; with the default four
	// rivals the leaders observe 1/16 of the traffic in total, close
	// to DRRIP's 64-of-2048 leader-set ratio.
	DefaultPartitionBits = 6
	// DefaultEpochRequests is the epoch length in requests.
	DefaultEpochRequests = 20_000
	// DefaultPSELMax is the saturating win-counter ceiling. Kept
	// deliberately narrow (2 bits): the ceiling bounds how much
	// history a long-dominant rival can bank, so a phase change
	// flips the steering within a couple of epochs instead of having
	// to grind down an arbitrarily deep lead (the reason DRRIP's
	// PSEL is narrow relative to its update rate — and an epoch here
	// already aggregates thousands of accesses, so little extra
	// smoothing is needed on top).
	DefaultPSELMax = 3
	// DefaultScoreWindow pools each leader's hit/miss deltas over this
	// many trailing epochs before scoring. One epoch of a leader
	// partition is a small sample (EpochRequests / 2^bits requests),
	// and a cyclic workload whose period straddles the epoch length
	// aliases into alternating good/bad epochs for the same rival;
	// pooling two epochs de-aliases that and stops winner flapping.
	DefaultScoreWindow = 2
	// DefaultShadowRate is the judge profilers' spatial sampling rate.
	DefaultShadowRate = 0.1
)

// Rival is one contender configuration in the tournament.
type Rival struct {
	// Name labels the rival in telemetry and INFO (default
	// "<policy>-k<Samples>").
	Name string
	// Samples is the rival's maxmemory-samples (eviction sampling
	// size K).
	Samples int
	// Policy is the rival's eviction policy.
	Policy Policy
}

func (r Rival) String() string {
	if r.Name != "" {
		return r.Name
	}
	if r.Policy == PolicyRandom {
		return "random"
	}
	return fmt.Sprintf("%s-k%d", r.Policy, r.Samples)
}

// DefaultRivals is the stock tournament: recency at the Redis-default
// K, the K=1 degenerate sampler, frequency, and uniform-random.
func DefaultRivals() []Rival {
	return []Rival{
		{Samples: DefaultSamples, Policy: PolicyLRU},
		{Samples: 1, Policy: PolicyLRU},
		{Samples: DefaultSamples, Policy: PolicyLFU},
		{Samples: 1, Policy: PolicyRandom},
	}
}

// ParseRivals parses a comma-separated rival list of "policy:K" specs,
// e.g. "lru:5,lru:1,lfu:5,random:1". The literal "default" yields
// DefaultRivals.
func ParseRivals(spec string) ([]Rival, error) {
	if spec == "default" {
		return DefaultRivals(), nil
	}
	var rivals []Rival
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, kStr, ok := strings.Cut(part, ":")
		k := 1
		if ok {
			v, err := strconv.Atoi(kStr)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("redislike: rival %q: bad sampling size %q", part, kStr)
			}
			k = v
		}
		var pol Policy
		switch strings.ToLower(name) {
		case "lru":
			pol = PolicyLRU
		case "lfu":
			pol = PolicyLFU
		case "random":
			pol = PolicyRandom
		default:
			return nil, fmt.Errorf("redislike: rival %q: unknown policy %q", part, name)
		}
		rivals = append(rivals, Rival{Samples: k, Policy: pol})
	}
	if len(rivals) < 2 {
		return nil, errors.New("redislike: a duel needs at least 2 rivals")
	}
	return rivals, nil
}

// DuelConfig shapes a tournament.
type DuelConfig struct {
	// MaxMemory is the total eviction threshold in bytes, split
	// proportionally between the leader partitions and the follower.
	MaxMemory uint64
	// Rivals are the contender configurations (default DefaultRivals).
	Rivals []Rival
	// PartitionBits sets the partition count to 2^bits (default 6).
	PartitionBits int
	// EpochRequests is how many requests one PSEL epoch spans
	// (default 20000).
	EpochRequests int
	// PSELMax is the saturating win-counter ceiling (default 3).
	PSELMax int64
	// ScoreWindow pools each leader's deltas over this many trailing
	// epochs when scoring (default 2).
	ScoreWindow int
	// Sampling selects the candidate sampler for every engine.
	Sampling SamplingMode
	// ClockResolution is shared by every engine (default 1).
	ClockResolution int
	// ShadowRate is the KRR judge's spatial sampling rate; < 0
	// disables the judge (default 0.1). The judge also requires
	// MaxMemory > 0 and at least two distinct PolicyLRU sampling
	// sizes among the rivals.
	ShadowRate float64
	// Seed fixes all randomness.
	Seed uint64
}

func (c *DuelConfig) fill() error {
	if len(c.Rivals) == 0 {
		c.Rivals = DefaultRivals()
	}
	if len(c.Rivals) < 2 {
		return errors.New("redislike: a duel needs at least 2 rivals")
	}
	if c.PartitionBits <= 0 {
		c.PartitionBits = DefaultPartitionBits
	}
	if c.PartitionBits > 16 {
		return fmt.Errorf("redislike: PartitionBits %d too large (max 16)", c.PartitionBits)
	}
	if len(c.Rivals) >= 1<<c.PartitionBits {
		return fmt.Errorf("redislike: %d rivals need more than %d partitions",
			len(c.Rivals), 1<<c.PartitionBits)
	}
	if c.EpochRequests <= 0 {
		c.EpochRequests = DefaultEpochRequests
	}
	if c.PSELMax <= 0 {
		c.PSELMax = DefaultPSELMax
	}
	if c.ScoreWindow <= 0 {
		c.ScoreWindow = DefaultScoreWindow
	}
	if c.ShadowRate == 0 {
		c.ShadowRate = DefaultShadowRate
	}
	for i, r := range c.Rivals {
		if r.Samples < 1 {
			return fmt.Errorf("redislike: rival %d: Samples %d invalid", i, r.Samples)
		}
	}
	return nil
}

// leader is one rival's dedicated partition. The mutable counters the
// outside world can observe are atomics so a /metrics scrape never
// races the (externally serialized) request path.
type leader struct {
	rival  Rival
	engine *Engine

	hits   telemetry.Counter
	misses telemetry.Counter
	wins   telemetry.Counter
	psel   atomic.Int64
	// epochMiss holds Float64bits of the last completed epoch's miss
	// ratio (NaN until the leader has seen traffic).
	epochMiss atomic.Uint64

	lastHits   uint64
	lastMisses uint64

	// window rings the last ScoreWindow epochs' (hit, miss) deltas;
	// scoring pools them into one sample. Only endEpoch touches it.
	window [][2]uint64
	winPos int
}

// Duel runs the tournament. Like Engine it is single-caller on the
// request path (Server serializes); all observable state is atomic.
type Duel struct {
	cfg      DuelConfig
	bits     uint
	follower *Engine
	leaders  []*leader

	followerMem  uint64
	followerHits telemetry.Counter
	followerMiss telemetry.Counter

	reqCount uint64
	epoch    atomic.Uint64
	winner   atomic.Int64
	switches telemetry.Counter

	judge         *dlru.Controller
	judgeBestK    atomic.Int64
	judgeAgree    telemetry.Counter
	judgeDisagree telemetry.Counter
}

// NewDuel builds a tournament.
func NewDuel(cfg DuelConfig) (*Duel, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	parts := uint64(1) << cfg.PartitionBits
	leaderMem := cfg.MaxMemory / parts
	d := &Duel{
		cfg:         cfg,
		bits:        uint(cfg.PartitionBits),
		followerMem: cfg.MaxMemory - leaderMem*uint64(len(cfg.Rivals)),
	}
	for i, r := range cfg.Rivals {
		d.leaders = append(d.leaders, &leader{
			rival: r,
			engine: NewEngine(Config{
				MaxMemory:       leaderMem,
				Samples:         r.Samples,
				Policy:          r.Policy,
				Sampling:        cfg.Sampling,
				ClockResolution: cfg.ClockResolution,
				Seed:            cfg.Seed + uint64(i)*977,
			}),
		})
		d.leaders[i].psel.Store(cfg.PSELMax / 2)
		d.leaders[i].epochMiss.Store(math.Float64bits(math.NaN()))
		d.leaders[i].window = make([][2]uint64, cfg.ScoreWindow)
	}
	first := cfg.Rivals[0]
	d.follower = NewEngine(Config{
		MaxMemory:       d.followerMem,
		Samples:         first.Samples,
		Policy:          first.Policy,
		Sampling:        cfg.Sampling,
		ClockResolution: cfg.ClockResolution,
		Seed:            cfg.Seed + 104729,
	})
	if ks := d.judgeCandidates(); len(ks) >= 2 && cfg.MaxMemory > 0 && cfg.ShadowRate > 0 {
		budget := cfg.MaxMemory / (trace.DefaultObjectSize + perKeyOverhead)
		if budget == 0 {
			budget = 1
		}
		judge, err := dlru.New(dlru.Config{
			BudgetObjects: budget,
			Candidates:    ks,
			Window:        cfg.EpochRequests,
			SamplingRate:  cfg.ShadowRate,
			Seed:          cfg.Seed + 224737,
		}, nil)
		if err != nil {
			return nil, err
		}
		d.judge = judge
	}
	return d, nil
}

// judgeCandidates returns the distinct sampling sizes of the
// PolicyLRU rivals — the configurations KRR can model.
func (d *Duel) judgeCandidates() []int {
	seen := map[int]bool{}
	var ks []int
	for _, r := range d.cfg.Rivals {
		if r.Policy == PolicyLRU && !seen[r.Samples] {
			seen[r.Samples] = true
			ks = append(ks, r.Samples)
		}
	}
	sort.Ints(ks)
	return ks
}

// partition maps a key to its partition via the top hash bits — the
// dict's bucket index uses the low bits, so leader membership and
// bucket placement stay independent.
func (d *Duel) partition(key uint64) int {
	return int(hashKey(key) >> (64 - d.bits))
}

// engineFor routes a key: leader index in [0, len rivals) or -1 for
// the follower.
func (d *Duel) engineFor(key uint64) (*Engine, int) {
	if p := d.partition(key); p < len(d.leaders) {
		return d.leaders[p].engine, p
	}
	return d.follower, -1
}

// account records one get outcome against the owning partition.
func (d *Duel) account(li int, hit bool) {
	switch {
	case li >= 0 && hit:
		d.leaders[li].hits.Inc()
	case li >= 0:
		d.leaders[li].misses.Inc()
	case hit:
		d.followerHits.Inc()
	default:
		d.followerMiss.Inc()
	}
}

// step advances the epoch machinery and feeds the judge.
func (d *Duel) step(req trace.Request) {
	if d.judge != nil {
		d.judge.Process(req)
	}
	d.reqCount++
	if d.reqCount%uint64(d.cfg.EpochRequests) == 0 {
		d.endEpoch()
	}
}

// Access adapts the tournament to the simulator request convention
// (cache-aside get-or-fill), routing by key partition.
func (d *Duel) Access(req trace.Request) bool {
	e, li := d.engineFor(req.Key)
	hit := e.Access(req)
	if req.Op != trace.OpDelete && req.Op != trace.OpSet {
		d.account(li, hit)
	}
	d.step(req)
	return hit
}

// Get looks up a key in its partition.
func (d *Duel) Get(key uint64) (uint32, bool) {
	e, li := d.engineFor(key)
	size, ok := e.Get(key)
	d.account(li, ok)
	d.step(trace.Request{Key: key, Op: trace.OpGet})
	return size, ok
}

// Set stores a key in its partition.
func (d *Duel) Set(key uint64, size uint32) {
	e, _ := d.engineFor(key)
	e.Set(key, size)
	d.step(trace.Request{Key: key, Op: trace.OpSet, Size: size})
}

// Del removes a key from its partition.
func (d *Duel) Del(key uint64) bool {
	e, _ := d.engineFor(key)
	ok := e.Del(key)
	d.step(trace.Request{Key: key, Op: trace.OpDelete})
	return ok
}

// endEpoch closes one PSEL epoch: score the leaders on their hit/miss
// deltas pooled over the trailing ScoreWindow epochs, bump the
// winner's saturating counter, decay the losers', steer the follower
// to the highest counter, and let the KRR judge grade the outcome.
func (d *Duel) endEpoch() {
	d.epoch.Add(1)
	best, bestMiss := -1, 0.0
	for i, l := range d.leaders {
		h, m := l.hits.Load(), l.misses.Load()
		dh, dm := h-l.lastHits, m-l.lastMisses
		l.lastHits, l.lastMisses = h, m
		if dh+dm > 0 {
			l.epochMiss.Store(math.Float64bits(float64(dm) / float64(dh+dm)))
		}
		l.window[l.winPos] = [2]uint64{dh, dm}
		l.winPos = (l.winPos + 1) % len(l.window)
		var wh, wm uint64
		for _, w := range l.window {
			wh += w[0]
			wm += w[1]
		}
		if wh+wm == 0 {
			continue // idle across the window: no evidence either way
		}
		miss := float64(wm) / float64(wh+wm)
		if best < 0 || miss < bestMiss {
			best, bestMiss = i, miss
		}
	}
	if best >= 0 {
		for i, l := range d.leaders {
			p := l.psel.Load()
			switch {
			case i == best:
				l.wins.Inc()
				if p < d.cfg.PSELMax {
					l.psel.Store(p + 1)
				}
			case p > 0:
				l.psel.Store(p - 1)
			}
		}
	}
	cur := int(d.winner.Load())
	top := cur
	for i := range d.leaders {
		if d.leaders[i].psel.Load() > d.leaders[top].psel.Load() {
			top = i
		}
	}
	if top != cur {
		d.winner.Store(int64(top))
		r := d.cfg.Rivals[top]
		d.follower.SetSamples(r.Samples)
		d.follower.SetPolicy(r.Policy)
		d.switches.Inc()
	}
	d.auditEpoch()
}

// auditEpoch asks the KRR judge which sampling size a K-LRU cache of
// the duel's budget should prefer, from live MRC snapshots, and
// records whether the PSEL winner agrees. The judge's budget tracks
// the observed mean object cost so the prediction stays anchored to
// the real resident capacity.
func (d *Duel) auditEpoch() {
	if d.judge == nil {
		return
	}
	if n := d.Len(); n > 0 {
		if mean := d.UsedMemory() / uint64(n); mean > 0 {
			d.judge.SetBudgetObjects(d.cfg.MaxMemory / mean)
		}
	}
	pred := d.judge.Predictions()
	bestK, bestMiss := 0, math.Inf(1)
	for _, k := range d.judgeCandidates() {
		if pred[k] < bestMiss {
			bestK, bestMiss = k, pred[k]
		}
	}
	if bestK == 0 {
		return
	}
	d.judgeBestK.Store(int64(bestK))
	w := d.cfg.Rivals[int(d.winner.Load())]
	if w.Policy == PolicyLRU && w.Samples == bestK {
		d.judgeAgree.Inc()
	} else {
		d.judgeDisagree.Inc()
	}
}

// Winner returns the rival currently steering the follower.
func (d *Duel) Winner() Rival { return d.cfg.Rivals[int(d.winner.Load())] }

// WinnerIndex returns the winning rival's index.
func (d *Duel) WinnerIndex() int { return int(d.winner.Load()) }

// Epoch returns the number of completed epochs.
func (d *Duel) Epoch() uint64 { return d.epoch.Load() }

// Switches returns how many epochs changed the follower's steering.
func (d *Duel) Switches() uint64 { return d.switches.Load() }

// Judge exposes the advisory KRR controller (nil when disabled).
func (d *Duel) Judge() *dlru.Controller { return d.judge }

// Rivals returns the contender configurations.
func (d *Duel) Rivals() []Rival { return append([]Rival(nil), d.cfg.Rivals...) }

// Follower exposes the follower engine (serialize access externally).
func (d *Duel) Follower() *Engine { return d.follower }

// Len returns resident keys across every partition.
func (d *Duel) Len() int {
	n := d.follower.Len()
	for _, l := range d.leaders {
		n += l.engine.Len()
	}
	return n
}

// UsedMemory returns the tracked footprint across every partition.
func (d *Duel) UsedMemory() uint64 {
	used := d.follower.UsedMemory()
	for _, l := range d.leaders {
		used += l.engine.UsedMemory()
	}
	return used
}

// Stats aggregates engine counters across every partition.
func (d *Duel) Stats() Stats {
	st := d.follower.Stats()
	for _, l := range d.leaders {
		ls := l.engine.Stats()
		st.Hits += ls.Hits
		st.Misses += ls.Misses
		st.Sets += ls.Sets
		st.Dels += ls.Dels
		st.Evictions += ls.Evictions
	}
	return st
}

// LeaderState is one rival's observable duel state.
type LeaderState struct {
	Rival     Rival
	PSEL      int64
	Wins      uint64
	Hits      uint64
	Misses    uint64
	EpochMiss float64 // NaN until the leader has completed an epoch with traffic
}

// DuelState is a consistent-enough snapshot of the tournament for
// JSON/INFO surfaces; every field is read from atomics.
type DuelState struct {
	Epoch         uint64
	WinnerIndex   int
	Winner        string
	Switches      uint64
	Leaders       []LeaderState
	JudgeBestK    int // 0 when the judge is disabled or undecided
	JudgeAgree    uint64
	JudgeDisagree uint64
}

// State snapshots the duel (safe from any goroutine).
func (d *Duel) State() DuelState {
	st := DuelState{
		Epoch:         d.epoch.Load(),
		WinnerIndex:   int(d.winner.Load()),
		Switches:      d.switches.Load(),
		JudgeBestK:    int(d.judgeBestK.Load()),
		JudgeAgree:    d.judgeAgree.Load(),
		JudgeDisagree: d.judgeDisagree.Load(),
	}
	st.Winner = d.cfg.Rivals[st.WinnerIndex].String()
	for _, l := range d.leaders {
		st.Leaders = append(st.Leaders, LeaderState{
			Rival:     l.rival,
			PSEL:      l.psel.Load(),
			Wins:      l.wins.Load(),
			Hits:      l.hits.Load(),
			Misses:    l.misses.Load(),
			EpochMiss: math.Float64frombits(l.epochMiss.Load()),
		})
	}
	return st
}

// metricName folds a rival name into a Prometheus-safe suffix.
func metricName(s string) string {
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// MetricsInto registers the duel's observable state under prefix,
// including the judge controller's own metrics under prefix+"judge_".
// All readers are atomics, safe to scrape mid-stream.
func (d *Duel) MetricsInto(set *telemetry.Set, prefix string) {
	set.GaugeFunc(prefix+"epoch", "completed PSEL epochs", func() float64 {
		return float64(d.epoch.Load())
	})
	set.GaugeFunc(prefix+"winner_index", "index of the rival steering the follower", func() float64 {
		return float64(d.winner.Load())
	})
	set.CounterFunc(prefix+"switches_total", "epochs that re-steered the follower", d.switches.Load)
	set.CounterFunc(prefix+"follower_hits_total", "follower partition get hits", d.followerHits.Load)
	set.CounterFunc(prefix+"follower_misses_total", "follower partition get misses", d.followerMiss.Load)
	for i, l := range d.leaders {
		l := l
		name := metricName(l.rival.String())
		help := fmt.Sprintf("leader %d (%s)", i, l.rival)
		set.GaugeFunc(prefix+"psel_"+name, help+" saturating win counter", func() float64 {
			return float64(l.psel.Load())
		})
		set.CounterFunc(prefix+"leader_wins_total_"+name, help+" epoch wins", l.wins.Load)
		set.CounterFunc(prefix+"leader_hits_total_"+name, help+" get hits", l.hits.Load)
		set.CounterFunc(prefix+"leader_misses_total_"+name, help+" get misses", l.misses.Load)
		set.GaugeFunc(prefix+"leader_epoch_miss_"+name, help+" last epoch miss ratio", func() float64 {
			return math.Float64frombits(l.epochMiss.Load())
		})
	}
	if d.judge != nil {
		set.GaugeFunc(prefix+"judge_best_k", "KRR-predicted best sampling size", func() float64 {
			return float64(d.judgeBestK.Load())
		})
		set.CounterFunc(prefix+"judge_agree_total", "epochs where the PSEL winner matched the KRR prediction", d.judgeAgree.Load)
		set.CounterFunc(prefix+"judge_disagree_total", "epochs where the PSEL winner diverged from the KRR prediction", d.judgeDisagree.Load)
		d.judge.MetricsInto(set, prefix+"judge_")
	}
}

// Info renders the aggregate INFO fields plus a duel section.
func (d *Duel) Info() string {
	st := d.State()
	agg := d.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "used_memory:%d\nmaxmemory:%d\nkeys:%d\nkeyspace_hits:%d\nkeyspace_misses:%d\nevicted_keys:%d\n",
		d.UsedMemory(), d.cfg.MaxMemory, d.Len(), agg.Hits, agg.Misses, agg.Evictions)
	fmt.Fprintf(&b, "duel_epoch:%d\nduel_winner:%s\nduel_switches:%d\n", st.Epoch, st.Winner, st.Switches)
	for _, l := range st.Leaders {
		fmt.Fprintf(&b, "duel_psel_%s:%d\n", metricName(l.Rival.String()), l.PSEL)
	}
	if d.judge != nil {
		fmt.Fprintf(&b, "duel_judge_best_k:%d\nduel_judge_agree:%d\nduel_judge_disagree:%d\n",
			st.JudgeBestK, st.JudgeAgree, st.JudgeDisagree)
	}
	return b.String()
}
