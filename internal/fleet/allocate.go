package fleet

import (
	"container/heap"
	"fmt"
	"sort"

	"krr/internal/mrc"
)

// Demand is one tenant's input to the partitioning optimizer: its live
// miss-ratio curve and its traffic weight (requests seen). The
// aggregate miss ratio being minimized is the traffic-weighted mean of
// the per-tenant miss ratios, so gains are weighted by traffic.
type Demand struct {
	Tenant string
	Curve  *mrc.Curve
	Weight float64
}

// Allocation is one tenant's share of the partitioned budget.
type Allocation struct {
	Tenant   string  `json:"tenant"`
	Capacity uint64  `json:"capacity"`
	Miss     float64 `json:"miss"`
}

// Plan is a complete partitioning of a shared budget.
type Plan struct {
	// Method names the split that produced the plan.
	Method string `json:"method"`
	// Unit is "objects" or "bytes", matching the curves' size axis.
	Unit string `json:"unit"`
	// Budget is the shared capacity being partitioned.
	Budget uint64 `json:"budget"`
	// Allocated is the capacity actually handed out (<= Budget; the
	// waterfill leaves budget idle once every curve is saturated).
	Allocated uint64 `json:"allocated"`
	// AggregateMiss is the traffic-weighted mean predicted miss ratio.
	AggregateMiss float64      `json:"aggregate_miss"`
	Allocations   []Allocation `json:"allocations"`
}

// hullPoint is one vertex of a demand's concave gain envelope.
type hullPoint struct {
	cap  uint64
	gain float64 // weighted miss-ratio reduction vs capacity 0
}

// segment is one hull edge, the unit of the coarse waterfill phase.
type segment struct {
	tenant int // demand index
	index  int // edge order within the tenant's hull
	width  uint64
	slope  float64 // marginal gain per capacity unit
}

// gainPoints converts a demand's MRC breakpoints into cumulative gain
// points: gain(c) = weight * (miss(0) - miss(c)). Non-improving
// breakpoints are dropped, so gains are strictly increasing.
func gainPoints(d Demand) []hullPoint {
	pts := []hullPoint{{cap: 0, gain: 0}}
	base := d.Curve.Eval(0)
	for i, size := range d.Curve.Sizes {
		if size == 0 {
			continue
		}
		g := d.Weight * (base - d.Curve.Miss[i])
		last := pts[len(pts)-1]
		if size <= last.cap || g <= last.gain {
			continue
		}
		pts = append(pts, hullPoint{cap: size, gain: g})
	}
	return pts
}

// concaveHull reduces gain points to their upper concave envelope
// (monotone-chain: pop while the incoming point makes the previous
// vertex lie under the chord). Hull edge slopes strictly decrease, the
// property the global greedy merge relies on.
func concaveHull(pts []hullPoint) []hullPoint {
	hull := pts[:0:0]
	for _, p := range pts {
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// b is under the a→p chord when slope(a,b) <= slope(b,p).
			lhs := (b.gain - a.gain) * float64(p.cap-b.cap)
			rhs := (p.gain - b.gain) * float64(b.cap-a.cap)
			if lhs > rhs {
				break
			}
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull
}

// Waterfill partitions budget across the demands by marginal
// miss-ratio gain: hull edges from every tenant are consumed in
// decreasing-slope order while they fit, then a fine-grained pass
// advances tenants through individual MRC breakpoints that still fit
// the remainder. The result is budget-feasible by construction and
// deterministic for fixed inputs (all orderings carry explicit
// tenant-id tie-breaks).
func Waterfill(demands []Demand, budget uint64) Plan {
	demands = sortedDemands(demands)
	hulls := make([][]hullPoint, len(demands))
	var segs []segment
	for t, d := range demands {
		hulls[t] = concaveHull(gainPoints(d))
		for i := 1; i < len(hulls[t]); i++ {
			a, b := hulls[t][i-1], hulls[t][i]
			segs = append(segs, segment{
				tenant: t,
				index:  i - 1,
				width:  b.cap - a.cap,
				slope:  (b.gain - a.gain) / float64(b.cap-a.cap),
			})
		}
	}
	sort.SliceStable(segs, func(i, j int) bool {
		if segs[i].slope != segs[j].slope {
			return segs[i].slope > segs[j].slope
		}
		if segs[i].tenant != segs[j].tenant {
			return demands[segs[i].tenant].Tenant < demands[segs[j].tenant].Tenant
		}
		return segs[i].index < segs[j].index
	})

	alloc := make([]uint64, len(demands)) // current capacity per tenant
	reached := make([]int, len(demands))  // hull vertex each tenant sits at
	remaining := budget
	// Coarse phase: whole hull edges, steepest first. An edge is
	// admissible only when its tenant sits exactly at the edge's start
	// vertex (a skipped too-wide edge strands the tenant's later,
	// shallower edges, preserving greedy order).
	for _, s := range segs {
		if reached[s.tenant] != s.index || s.width > remaining {
			continue
		}
		reached[s.tenant]++
		alloc[s.tenant] = hulls[s.tenant][reached[s.tenant]].cap
		remaining -= s.width
	}
	// Fine phase: single MRC breakpoints that fit the remainder, best
	// marginal gain per unit first (ties to the lower tenant index).
	// Each tenant offers its nearest improving breakpoint past its
	// current capacity; taking it advances only that tenant's cursor,
	// so every curve is scanned once, and a step that no longer fits
	// never will again (the remainder only shrinks), retiring its
	// tenant for good.
	steps := make(stepHeap, 0, len(demands))
	cursor := make([]int, len(demands))
	for t := range demands {
		if st, ok := nextStep(demands[t], t, alloc[t], &cursor[t]); ok {
			steps = append(steps, st)
		}
	}
	heap.Init(&steps)
	for len(steps) > 0 {
		st := steps[0]
		if st.cap-alloc[st.tenant] > remaining {
			heap.Pop(&steps)
			continue
		}
		remaining -= st.cap - alloc[st.tenant]
		alloc[st.tenant] = st.cap
		if next, ok := nextStep(demands[st.tenant], st.tenant, st.cap, &cursor[st.tenant]); ok {
			steps[0] = next
			heap.Fix(&steps, 0)
		} else {
			heap.Pop(&steps)
		}
	}
	return buildPlan("waterfill", demands, alloc, budget)
}

// step is a tenant's nearest improving breakpoint in the fine phase.
type step struct {
	tenant int
	cap    uint64
	score  float64 // weighted miss-ratio gain per capacity unit
}

// nextStep scans d's breakpoints from *cursor for the first one past
// capacity cur that improves on it, leaving *cursor there. Breakpoints
// it passes are at or below cur or do not improve on it, so they can
// never be a later step either.
func nextStep(d Demand, tenant int, cur uint64, cursor *int) (step, bool) {
	base := d.Curve.Eval(0)
	curGain := d.Weight * (base - d.Curve.Eval(cur))
	for i := *cursor; i < len(d.Curve.Sizes); i++ {
		size := d.Curve.Sizes[i]
		if size <= cur {
			continue
		}
		dg := d.Weight*(base-d.Curve.Miss[i]) - curGain
		if dg <= 0 {
			continue
		}
		*cursor = i
		return step{tenant: tenant, cap: size, score: dg / float64(size-cur)}, true
	}
	*cursor = len(d.Curve.Sizes)
	return step{}, false
}

// stepHeap orders fine-phase steps by score, highest first, then by
// tenant index.
type stepHeap []step

func (h stepHeap) Len() int { return len(h) }
func (h stepHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].tenant < h[j].tenant
}
func (h stepHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *stepHeap) Push(x any)   { *h = append(*h, x.(step)) }
func (h *stepHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// UniformSplit gives every tenant an equal share of the budget.
func UniformSplit(demands []Demand, budget uint64) Plan {
	demands = sortedDemands(demands)
	alloc := make([]uint64, len(demands))
	if n := uint64(len(demands)); n > 0 {
		for t := range alloc {
			alloc[t] = budget / n
		}
	}
	return buildPlan("uniform", demands, alloc, budget)
}

// ProportionalSplit sizes shares by traffic weight — the common
// operational heuristic the waterfill is measured against.
func ProportionalSplit(demands []Demand, budget uint64) Plan {
	demands = sortedDemands(demands)
	alloc := make([]uint64, len(demands))
	var total float64
	for _, d := range demands {
		total += d.Weight
	}
	if total > 0 {
		for t, d := range demands {
			alloc[t] = uint64(float64(budget) * d.Weight / total)
		}
	}
	return buildPlan("proportional", demands, alloc, budget)
}

// sortedDemands returns a copy ordered by tenant id, the canonical
// order every split emits and every tie-break uses.
func sortedDemands(demands []Demand) []Demand {
	out := append([]Demand(nil), demands...)
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// buildPlan evaluates per-tenant miss ratios at the chosen capacities
// and assembles the plan.
func buildPlan(method string, demands []Demand, alloc []uint64, budget uint64) Plan {
	p := Plan{Method: method, Unit: "objects", Budget: budget}
	var wSum, wMiss float64
	for t, d := range demands {
		miss := d.Curve.Eval(alloc[t])
		p.Allocations = append(p.Allocations, Allocation{
			Tenant:   d.Tenant,
			Capacity: alloc[t],
			Miss:     miss,
		})
		p.Allocated += alloc[t]
		wSum += d.Weight
		wMiss += d.Weight * miss
	}
	if wSum > 0 {
		p.AggregateMiss = wMiss / wSum
	}
	return p
}

// Feasible verifies the plan against a budget (used by smoke tests and
// the HTTP layer's self-check).
func (p Plan) Feasible() error {
	var sum uint64
	for _, a := range p.Allocations {
		if a.Miss < 0 || a.Miss > 1 {
			return fmt.Errorf("fleet: tenant %s miss %v out of [0, 1]", a.Tenant, a.Miss)
		}
		sum += a.Capacity
	}
	if sum != p.Allocated {
		return fmt.Errorf("fleet: allocated %d != sum of shares %d", p.Allocated, sum)
	}
	if sum > p.Budget {
		return fmt.Errorf("fleet: allocated %d exceeds budget %d", sum, p.Budget)
	}
	return nil
}
