package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// minPairs is the fewest A/B pairs that may support an "improved"
// verdict, or a "regressed" one on a metric with no bound.
const minPairs = 10

// winShare is the share of pairs a change must win to claim a gain.
const winShare = 0.9

// compareRow is the verdict for one (workload, end-to-end metric).
type compareRow struct {
	Workload string     `json:"workload"`
	Metric   string     `json:"metric"`
	Unit     string     `json:"unit"`
	Better   string     `json:"better"`
	Bound    *float64   `json:"bound"` // nil for per-layer metrics
	Pairs    int        `json:"pairs"`
	A        [3]float64 `json:"a_q1_median_q3"`
	B        [3]float64 `json:"b_q1_median_q3"`
	// Change is B's median relative to A's; SpreadA is A's quartile
	// distance relative to its median.
	Change  float64 `json:"change"`
	SpreadA float64 `json:"spread_a"`
	// Wins is the share of pairs B beats A (ties count for neither).
	Wins    float64 `json:"wins"`
	Verdict string  `json:"verdict"`
}

// failRow reports a workload's failure fractions on both sides.
type failRow struct {
	Workload   string  `json:"workload"`
	FailA      float64 `json:"fail_frac_a"`
	FailB      float64 `json:"fail_frac_b"`
	Delta      float64 `json:"delta"`
	IncorrectA int     `json:"incorrect_runs_a"`
	IncorrectB int     `json:"incorrect_runs_b"`
}

// compareRuns pairs the untraced run records of two directories by
// workload and seed. It gives a verdict to each end-to-end metric and
// to each per-layer metric every paired record carries (the window.*
// rows):
//
//   - improved: at least minPairs pairs, B wins at least winShare of
//     them, and the medians differ by more than A's quartile distance;
//   - regressed: B's median is worse than A's by more than the bound,
//     or — for a metric with no bound — the mirror of improved;
//   - unresolved: A's own spread exceeds the bound (unless every B run
//     beats every A run), a metric with no bound shows no difference,
//     or there are fewer than two pairs;
//   - unchanged: otherwise.
//
// With out set, the report — verdicts plus every record read — is
// written there as JSON.
func compareRuns(spec *Spec, dirA, dirB, out string) error {
	a, err := loadRuns(dirA)
	if err != nil {
		return err
	}
	b, err := loadRuns(dirB)
	if err != nil {
		return err
	}
	var rows []compareRow
	var fails []failRow
	for _, w := range spec.Workloads {
		ra, rb := pairBySeed(a, b, w.Name)
		for _, m := range append(append([]SpecMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
			va, okA := values(ra, m.Name)
			vb, okB := values(rb, m.Name)
			if okA && okB {
				rows = append(rows, verdict(w.Name, m, va, vb))
			}
		}
		fails = append(fails, failFractions(w.Name, ra, rb))
	}
	printComparison(os.Stdout, rows, fails)
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(map[string]any{
		"a": dirA, "b": dirB, "verdicts": rows, "failures": fails,
		"runs": map[string][]*result{"A": a, "B": b},
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// loadRuns reads every run record in dir (span files excluded).
func loadRuns(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var runs []*result
	for _, p := range paths {
		if strings.HasSuffix(p, ".trace.json") {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		runs = append(runs, &r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no run records in %s", dir)
	}
	return runs, nil
}

// pairBySeed returns the untraced runs of one workload present on both
// sides, aligned by seed.
func pairBySeed(a, b []*result, workload string) (ra, rb []*result) {
	bySeed := func(runs []*result) map[uint64]*result {
		m := make(map[uint64]*result)
		for _, r := range runs {
			if r.Workload == workload && !r.Traced {
				m[r.Seed] = r
			}
		}
		return m
	}
	ma, mb := bySeed(a), bySeed(b)
	var seeds []uint64
	for s := range ma {
		if _, ok := mb[s]; ok {
			seeds = append(seeds, s)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, s := range seeds {
		ra, rb = append(ra, ma[s]), append(rb, mb[s])
	}
	return ra, rb
}

// values collects one metric from every run; ok is false when any run
// lacks it.
func values(runs []*result, name string) (v []float64, ok bool) {
	for _, r := range runs {
		x, found := r.E2E[name]
		if !found {
			if x, found = r.Layer[name]; !found {
				return nil, false
			}
		}
		v = append(v, x)
	}
	return v, true
}

// verdict compares paired values va (A) and vb (B) of metric m.
func verdict(workload string, m SpecMetric, va, vb []float64) compareRow {
	row := compareRow{Workload: workload, Metric: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound, Pairs: len(va)}
	if len(va) < 2 {
		row.Verdict = "unresolved"
		return row
	}
	q1a, meda, q3a := quartiles(va)
	q1b, medb, q3b := quartiles(vb)
	row.A, row.B = [3]float64{q1a, meda, q3a}, [3]float64{q1b, medb, q3b}
	row.Change = (medb - meda) / meda
	row.SpreadA = (q3a - q1a) / meda
	// better(x, y): x reads better than y in the metric's direction.
	better := func(x, y float64) bool { return (m.Better == "lower") == (x < y) && x != y }
	wins, losses := 0, 0
	for i := range va {
		if better(vb[i], va[i]) {
			wins++
		} else if better(va[i], vb[i]) {
			losses++
		}
	}
	row.Wins = float64(wins) / float64(len(va))
	worse := row.Change
	if m.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, x := range vb {
		for _, y := range va {
			allBetter = allBetter && better(x, y)
		}
	}
	shown := len(va) >= minPairs && math.Abs(medb-meda) > q3a-q1a
	switch {
	case m.Bound != nil && worse > *m.Bound:
		row.Verdict = "regressed"
	case shown && worse < 0 && row.Wins >= winShare:
		row.Verdict = "improved"
	case m.Bound == nil && shown && worse > 0 && float64(losses)/float64(len(va)) >= winShare:
		row.Verdict = "regressed"
	case m.Bound == nil || (row.SpreadA > *m.Bound && !allBetter):
		row.Verdict = "unresolved"
	default:
		row.Verdict = "unchanged"
	}
	return row
}

func failFractions(workload string, ra, rb []*result) failRow {
	frac := func(runs []*result) (float64, int) {
		var failed, attempted uint64
		incorrect := 0
		for _, r := range runs {
			failed += r.Failed
			attempted += r.Attempted
			if !r.Correct {
				incorrect++
			}
		}
		if attempted == 0 {
			return 0, incorrect
		}
		return float64(failed) / float64(attempted), incorrect
	}
	fa, ia := frac(ra)
	fb, ib := frac(rb)
	return failRow{Workload: workload, FailA: fa, FailB: fb, Delta: fb - fa, IncorrectA: ia, IncorrectB: ib}
}

func printComparison(w io.Writer, rows []compareRow, fails []failRow) {
	fmt.Fprintf(w, "%-12s %-24s %5s %30s %30s %8s %6s %6s %s\n",
		"workload", "metric", "pairs", "A q1/median/q3", "B q1/median/q3", "change", "spread", "wins", "verdict")
	for _, r := range rows {
		bound := "no bound"
		if r.Bound != nil {
			bound = fmt.Sprintf("bound %.0f%%", 100**r.Bound)
		}
		fmt.Fprintf(w, "%-12s %-24s %5d %9.4g/%9.4g/%9.4g %9.4g/%9.4g/%9.4g %+7.2f%% %5.1f%% %5.0f%% %s (%s)\n",
			r.Workload, r.Metric, r.Pairs, r.A[0], r.A[1], r.A[2], r.B[0], r.B[1], r.B[2],
			100*r.Change, 100*r.SpreadA, 100*r.Wins, r.Verdict, bound)
	}
	for _, f := range fails {
		fmt.Fprintf(w, "%-12s fail_frac A %.3g B %.3g delta %+.3g; incorrect runs A %d B %d\n",
			f.Workload, f.FailA, f.FailB, f.Delta, f.IncorrectA, f.IncorrectB)
	}
}
