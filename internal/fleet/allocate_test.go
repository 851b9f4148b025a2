package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"krr/internal/mrc"
)

// stepCurve builds a step MRC from (size, miss) pairs; a leading
// (0, 1) point is implied by construction everywhere in the repo.
func stepCurve(sizes []uint64, miss []float64) *mrc.Curve {
	return &mrc.Curve{Sizes: sizes, Miss: miss, Interp: mrc.InterpStep}
}

func testDemands() []Demand {
	// "hot": steep — small capacity buys most of the hits.
	// "flat": shallow — needs a lot of capacity for modest gains.
	// "loop": cliff at 400, nothing before it.
	return []Demand{
		{Tenant: "hot", Weight: 6000, Curve: stepCurve(
			[]uint64{0, 50, 100, 200}, []float64{1, 0.30, 0.15, 0.10})},
		{Tenant: "flat", Weight: 3000, Curve: stepCurve(
			[]uint64{0, 500, 1000}, []float64{1, 0.80, 0.60})},
		{Tenant: "loop", Weight: 1000, Curve: stepCurve(
			[]uint64{0, 399, 400}, []float64{1, 1, 0.05})},
	}
}

func TestWaterfillFeasibleAndDeterministic(t *testing.T) {
	for _, budget := range []uint64{0, 10, 100, 500, 1000, 5000} {
		p1 := Waterfill(testDemands(), budget)
		if err := p1.Feasible(); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		p2 := Waterfill(testDemands(), budget)
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("budget %d: plans differ across identical runs:\n%+v\n%+v", budget, p1, p2)
		}
	}
}

func TestWaterfillMonotoneInBudget(t *testing.T) {
	last := 2.0
	for _, budget := range []uint64{0, 50, 100, 400, 600, 1000, 2000} {
		p := Waterfill(testDemands(), budget)
		if p.AggregateMiss > last+1e-12 {
			t.Fatalf("aggregate miss rose with budget: %v after %v at budget %d", p.AggregateMiss, last, budget)
		}
		last = p.AggregateMiss
	}
}

func TestWaterfillBeatsBaselines(t *testing.T) {
	for _, budget := range []uint64{300, 600, 1200} {
		wf := Waterfill(testDemands(), budget)
		prop := ProportionalSplit(testDemands(), budget)
		uni := UniformSplit(testDemands(), budget)
		if wf.AggregateMiss > prop.AggregateMiss+1e-12 {
			t.Fatalf("budget %d: waterfill %v worse than proportional %v", budget, wf.AggregateMiss, prop.AggregateMiss)
		}
		if wf.AggregateMiss > uni.AggregateMiss+1e-12 {
			t.Fatalf("budget %d: waterfill %v worse than uniform %v", budget, wf.AggregateMiss, uni.AggregateMiss)
		}
	}
}

func TestWaterfillCrossesPlateau(t *testing.T) {
	// The loop tenant's curve is flat until its working set fits; a
	// naive step-by-step greedy stalls on the zero-gain plateau, the
	// hull jumps it. At budget 450 the optimum spends 400 on the loop
	// cliff only if its weighted gain beats the hot tenant's; with
	// these weights hot wins first, then loop's cliff must be taken
	// when the budget allows both.
	d := []Demand{
		{Tenant: "hot", Weight: 1000, Curve: stepCurve(
			[]uint64{0, 50}, []float64{1, 0.2})},
		{Tenant: "loop", Weight: 5000, Curve: stepCurve(
			[]uint64{0, 399, 400}, []float64{1, 1, 0.05})},
	}
	p := Waterfill(d, 450)
	byTenant := map[string]Allocation{}
	for _, a := range p.Allocations {
		byTenant[a.Tenant] = a
	}
	if byTenant["loop"].Capacity != 400 {
		t.Fatalf("loop tenant not carried over its plateau: %+v", p)
	}
	if byTenant["hot"].Capacity != 50 {
		t.Fatalf("hot tenant starved: %+v", p)
	}
}

func TestWaterfillLeavesSaturatedBudgetIdle(t *testing.T) {
	d := []Demand{{Tenant: "a", Weight: 1, Curve: stepCurve(
		[]uint64{0, 10}, []float64{1, 0.1})}}
	p := Waterfill(d, 1000)
	if p.Allocated != 10 {
		t.Fatalf("allocated %d past the curve's last breakpoint", p.Allocated)
	}
	if err := p.Feasible(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitsOnEmptyDemands(t *testing.T) {
	for _, p := range []Plan{
		Waterfill(nil, 100),
		UniformSplit(nil, 100),
		ProportionalSplit(nil, 100),
	} {
		if err := p.Feasible(); err != nil {
			t.Fatal(err)
		}
		if p.Allocated != 0 || len(p.Allocations) != 0 {
			t.Fatalf("empty demands allocated something: %+v", p)
		}
	}
}

// waterfillReference is Waterfill with the fine phase as it was before
// the per-tenant cursor and step heap: every round rescans every
// tenant's curve from its first breakpoint. It is the oracle the heap
// version is pinned against.
func waterfillReference(demands []Demand, budget uint64) Plan {
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
	alloc := make([]uint64, len(demands))
	reached := make([]int, len(demands))
	remaining := budget
	for _, s := range segs {
		if reached[s.tenant] != s.index || s.width > remaining {
			continue
		}
		reached[s.tenant]++
		alloc[s.tenant] = hulls[s.tenant][reached[s.tenant]].cap
		remaining -= s.width
	}
	for {
		best, bestT := -1.0, -1
		var bestCap uint64
		for t, d := range demands {
			cur := alloc[t]
			curGain := d.Weight * (d.Curve.Eval(0) - d.Curve.Eval(cur))
			for i, size := range d.Curve.Sizes {
				if size <= cur || size-cur > remaining {
					continue
				}
				dg := d.Weight*(d.Curve.Eval(0)-d.Curve.Miss[i]) - curGain
				if dg <= 0 {
					continue
				}
				if score := dg / float64(size-cur); score > best {
					best, bestT, bestCap = score, t, size
				}
				break
			}
		}
		if bestT < 0 {
			break
		}
		remaining -= bestCap - alloc[bestT]
		alloc[bestT] = bestCap
	}
	return buildPlan("waterfill", demands, alloc, budget)
}

// randomStepCurve builds a monotone step curve with plateaus (repeated
// miss ratios) and, with quantized levels, frequent equal marginal
// gains.
func randomStepCurve(rng *rand.Rand) *mrc.Curve {
	n := 1 + rng.Intn(60)
	sizes := []uint64{0}
	miss := []float64{1}
	size, m := uint64(0), 1.0
	for i := 0; i < n; i++ {
		size += uint64(1 + rng.Intn(40))
		switch rng.Intn(4) {
		case 0: // plateau
		case 1: // quantized drop: ties across tenants
			m -= float64(1+rng.Intn(3)) / 64
		default:
			m -= rng.Float64() * m / 4
		}
		if m < 0 {
			m = 0
		}
		sizes = append(sizes, size)
		miss = append(miss, m)
	}
	return stepCurve(sizes, miss)
}

func TestWaterfillMatchesReference(t *testing.T) {
	check := func(label string, d []Demand, budget uint64) {
		t.Helper()
		got, want := Waterfill(d, budget), waterfillReference(d, budget)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s budget %d: plan differs from reference\n got %+v\nwant %+v", label, budget, got, want)
		}
	}
	for _, budget := range []uint64{0, 1, 10, 49, 50, 100, 399, 450, 500, 1000, 1500, 5000} {
		check("testDemands", testDemands(), budget)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		tenants := 1 + rng.Intn(6)
		var d []Demand
		shared := randomStepCurve(rng)
		for i := 0; i < tenants; i++ {
			c := randomStepCurve(rng)
			w := float64(1 + rng.Intn(4)) // few weights: ties
			if rng.Intn(3) == 0 {
				c = shared // identical curves: exact cross-tenant ties
			}
			d = append(d, Demand{Tenant: fmt.Sprintf("t%d", i), Curve: c, Weight: w})
		}
		for _, budget := range []uint64{0, 1, 7, 50, 200, 800, 3000, uint64(rng.Intn(3000))} {
			check(fmt.Sprintf("trial %d", trial), d, budget)
		}
	}
}

func TestWaterfillLinearCurvesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		var d []Demand
		for i := 0; i < 1+rng.Intn(4); i++ {
			c := randomStepCurve(rng)
			sizes := append([]uint64(nil), c.Sizes[1:]...) // starts past 0
			lin := mrc.FromPoints(sizes, c.Miss[1:])
			d = append(d, Demand{Tenant: fmt.Sprintf("t%d", i), Curve: lin, Weight: float64(1 + rng.Intn(3))})
		}
		for _, budget := range []uint64{5, 100, 1000} {
			if got, want := Waterfill(d, budget), waterfillReference(d, budget); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d budget %d: plan differs from reference\n got %+v\nwant %+v", trial, budget, got, want)
			}
		}
	}
}
