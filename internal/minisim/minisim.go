// Package minisim implements miniature cache simulation (Waldspurger
// et al., USENIX ATC '17), the generic MRC technique of §6.2: a cache
// of size C is emulated by a miniature cache of size C·R fed only the
// spatially-sampled (rate R) subset of requests. Unlike stack models
// it needs one miniature cache per evaluated size, but it works for
// *any* replacement policy — including K-LRU — which makes it both a
// baseline and a cross-check for KRR.
package minisim

import (
	"errors"

	"krr/internal/mrc"
	"krr/internal/sampling"
	"krr/internal/simulator"
	"krr/internal/trace"
)

// Config assembles a miniature simulation.
type Config struct {
	// Sizes are the full-scale cache capacities (objects) to emulate.
	Sizes []uint64
	// Rate is the spatial sampling rate in (0, 1]; miniature caches
	// have capacity max(1, round(C·Rate)).
	Rate float64
	// K is the K-LRU eviction sampling size of the emulated caches.
	K int
	// Seed fixes sampling and eviction randomness.
	Seed uint64
}

// Sim runs one miniature cache per configured size over the sampled
// request subset.
type Sim struct {
	cfg    Config
	filter *sampling.Filter
	caches []*simulator.KLRU
	hits   []uint64
	misses []uint64
	seen   uint64
}

// New builds the simulation.
func New(cfg Config) (*Sim, error) {
	if len(cfg.Sizes) == 0 {
		return nil, errors.New("minisim: no sizes")
	}
	if cfg.Rate <= 0 || cfg.Rate > 1 {
		return nil, errors.New("minisim: rate must be in (0, 1]")
	}
	if cfg.K < 1 {
		return nil, errors.New("minisim: K must be >= 1")
	}
	s := &Sim{
		cfg:    cfg,
		caches: make([]*simulator.KLRU, len(cfg.Sizes)),
		hits:   make([]uint64, len(cfg.Sizes)),
		misses: make([]uint64, len(cfg.Sizes)),
	}
	if cfg.Rate < 1 {
		s.filter = sampling.NewRate(cfg.Rate)
	}
	for i, size := range cfg.Sizes {
		s.caches[i] = simulator.NewKLRU(simulator.ObjectCapacity(miniCapacity(size, cfg.Rate)), cfg.K, true, cfg.Seed+uint64(i)*97+1)
	}
	return s, nil
}

// miniCapacity is the miniature capacity emulating full size size at
// the given rate: max(1, round(size·rate)).
func miniCapacity(size uint64, rate float64) int {
	return max(1, int(float64(size)*rate+0.5))
}

// Process feeds one request to every miniature cache (if sampled).
func (s *Sim) Process(req trace.Request) {
	s.seen++
	if s.filter != nil && !s.filter.Sampled(req.Key) {
		return
	}
	for i, c := range s.caches {
		if req.Op == trace.OpDelete {
			c.Access(req)
			continue
		}
		if c.Access(req) {
			s.hits[i]++
		} else {
			s.misses[i]++
		}
	}
}

// MRC returns the emulated miss ratio curve over full-scale sizes.
func (s *Sim) MRC() *mrc.Curve {
	miss := make([]float64, len(s.cfg.Sizes))
	for i := range s.cfg.Sizes {
		total := s.hits[i] + s.misses[i]
		if total == 0 {
			miss[i] = 1
			continue
		}
		miss[i] = float64(s.misses[i]) / float64(total)
	}
	return mrc.FromPoints(s.cfg.Sizes, miss)
}
