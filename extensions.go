package krr

// Facade exports for the repository's extension features: the
// DLRU-style adaptive sampling-size controller, generalized
// sampled-eviction priorities, Belady's OPT curve and cache capacities.
// The MRC techniques beyond KRR (AET, StatStack, Counter Stacks, MIMIR,
// SHARDS, NSP LFU and MRU) have no exports of their own: build them by
// name with NewModel, BuildMRC or BuildMRCWith (see Models).

import (
	"krr/internal/dlru"
	"krr/internal/simulator"
)

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

// OPTMRC computes Belady's clairvoyant-optimal miss ratio curve — the
// lower bound against which every replacement policy is read.
func OPTMRC(tr *Trace, sizes []uint64, workers int) *Curve {
	return simulator.OPTMRC(tr, sizes, workers)
}

// ObjectCapacity expresses a capacity in objects.
func ObjectCapacity(n int) simulator.Capacity { return simulator.ObjectCapacity(n) }

// ByteCapacityOf expresses a capacity in bytes.
func ByteCapacityOf(b uint64) simulator.Capacity { return simulator.ByteCapacity(b) }
