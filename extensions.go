package krr

// Facade exports for the repository's extension features: the AET
// exact-LRU model recommended for large K, miniature cache
// simulation, the DLRU-style adaptive sampling-size controller, and
// generalized sampled-eviction priorities.

import (
	"krr/internal/aet"
	"krr/internal/counterstacks"
	"krr/internal/dlru"
	"krr/internal/minisim"
	"krr/internal/nsp"
	"krr/internal/simulator"
)

// CounterStack models exact LRU from staggered probabilistic
// cardinality counters (Wires et al., OSDI '14) — §6.1.
type CounterStack = counterstacks.Stack

// CounterStackConfig assembles a CounterStack.
type CounterStackConfig = counterstacks.Config

// NewCounterStack builds a Counter Stacks model.
func NewCounterStack(cfg CounterStackConfig) *CounterStack { return counterstacks.New(cfg) }

// AETMonitor models exact LRU from the reuse-time distribution (Hu et
// al., ATC '16). The paper recommends it over KRR once K >= 32, where
// K-LRU has converged to LRU (§5.3).
type AETMonitor = aet.Monitor

// NewAETMonitor returns an AET monitor; samplingRate in (0, 1)
// enables spatial sampling.
func NewAETMonitor(samplingRate float64) *AETMonitor { return aet.New(samplingRate) }

// MiniSim emulates K-LRU caches at many sizes with scaled-down
// miniature caches over a sampled stream (Waldspurger et al., ATC '17).
type MiniSim = minisim.Sim

// MiniSimConfig assembles a MiniSim.
type MiniSimConfig = minisim.Config

// NewMiniSim builds a miniature simulation.
func NewMiniSim(cfg MiniSimConfig) (*MiniSim, error) { return minisim.New(cfg) }

// DLRUController adapts a live cache's eviction sampling size online,
// driven by KRR shadow profilers (the DLRU idea, §1).
type DLRUController = dlru.Controller

// DLRUConfig assembles a DLRUController.
type DLRUConfig = dlru.Config

// TunableCache is a live cache whose sampling size can be
// reconfigured online.
type TunableCache = dlru.Tunable

// NewDLRUController builds a controller driving cache (nil for
// advisory mode).
func NewDLRUController(cfg DLRUConfig, cache TunableCache) (*DLRUController, error) {
	return dlru.New(cfg, cache)
}

// NewTunableKLRUCache builds a K-LRU simulator that satisfies
// TunableCache.
func NewTunableKLRUCache(capacityObjects, k int, seed uint64) interface {
	Cache
	TunableCache
} {
	return simulator.NewKLRU(simulator.ObjectCapacity(capacityObjects), k, true, seed)
}

// EvictionPriority scores an object for sampled eviction; lower
// scores evict first.
type EvictionPriority = simulator.Priority

// Sampled-eviction priorities beyond recency (§7 future work).
var (
	// PriorityLRU evicts the sample's least recently used object.
	PriorityLRU EvictionPriority = simulator.Recency{}
	// PriorityLFU evicts the sample's least frequently used object.
	PriorityLFU EvictionPriority = simulator.Frequency{}
	// PriorityHyperbolic evicts by lowest frequency-per-lifetime.
	PriorityHyperbolic EvictionPriority = simulator.Hyperbolic{}
	// PriorityTTL evicts the sample's soonest-to-expire object.
	PriorityTTL EvictionPriority = simulator.TTL{}
)

// SampledCacheConfig assembles a sampled-eviction cache with a
// pluggable priority.
type SampledCacheConfig = simulator.SampledConfig

// NewSampledCache builds a sampled-eviction cache.
func NewSampledCache(cfg SampledCacheConfig) Cache { return simulator.NewSampled(cfg) }

// NSPStack computes one-pass stack distances for NSP-class priority
// policies (Bilardi et al., CF '11), such as perfect LFU. For MRU use
// NewModel("mru", …): its exact transposition stack is Mattson's MRU
// stack, which the generic NSP engine is not.
type NSPStack = nsp.Stack

// NewLFUStack returns an NSP stack modeling a perfect-LFU cache.
func NewLFUStack(seed uint64) *NSPStack { return nsp.New(nsp.LFU{}, seed) }

// OPTMRC computes Belady's clairvoyant-optimal miss ratio curve — the
// lower bound against which every replacement policy is read.
func OPTMRC(tr *Trace, sizes []uint64, workers int) *Curve {
	return simulator.OPTMRC(tr, sizes, workers)
}

// ObjectCapacity expresses a capacity in objects.
func ObjectCapacity(n int) simulator.Capacity { return simulator.ObjectCapacity(n) }

// ByteCapacityOf expresses a capacity in bytes.
func ByteCapacityOf(b uint64) simulator.Capacity { return simulator.ByteCapacity(b) }
