package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinyOpts keeps experiment tests fast: minuscule key spaces and
// request counts. Shape assertions stay meaningful because every
// generator preserves its structure at small scale.
func tinyOpts() Options {
	return Options{
		Scale:           0.01,
		ReqFraction:     0.01,
		MaxRequests:     15000,
		SimSizes:        6,
		Ks:              []int{1, 4, 16},
		TracesPerFamily: 2,
		Seed:            7,
	}.Fill()
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablation.kprime", "ablation.redis-sampling", "ablation.replacement", "ablation.sizearray",
		"ext.aet-crossover", "ext.analytic", "ext.dlru", "ext.fleet", "ext.lru-baselines", "ext.minisim", "ext.opt-bound", "ext.policies",
		"fig1.1", "fig5.1", "fig5.2", "fig5.3", "fig5.4", "fig5.5",
		"space", "table5.1", "table5.2", "table5.3", "table5.4",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	for _, e := range All() {
		if e.Title == "" || e.Description == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", tinyOpts()); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestOptionsFillDefaults(t *testing.T) {
	o := Options{}.Fill()
	if o.Scale <= 0 || o.ReqFraction <= 0 || o.SimSizes <= 0 || len(o.Ks) == 0 || o.Seed == 0 {
		t.Fatalf("defaults not applied: %+v", o)
	}
}

// runOne executes an experiment at tiny scale and sanity-checks the
// rendering round trip.
func runOne(t *testing.T, id string) *Result {
	t.Helper()
	res, err := Run(id, tinyOpts())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.ID != id {
		t.Fatalf("result id %q", res.ID)
	}
	if len(res.Tables)+len(res.Figures) == 0 {
		t.Fatalf("%s produced no output", id)
	}
	var md strings.Builder
	if err := res.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), id) {
		t.Fatalf("%s markdown missing id", id)
	}
	var csv strings.Builder
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFig11(t *testing.T) {
	res := runOne(t, "fig1.1")
	p := res.Figures[0].Panels[0]
	// K sweep plus exact LRU.
	if len(p.Series) != len(tinyOpts().Ks)+1 {
		t.Fatalf("series count %d", len(p.Series))
	}
	// Miss ratios are probabilities.
	for _, s := range p.Series {
		for _, y := range s.Y {
			if y < 0 || y > 1 {
				t.Fatalf("miss ratio %v out of range", y)
			}
		}
	}
}

func TestTable51ShapeAndAccuracy(t *testing.T) {
	res := runOne(t, "table5.1")
	tb := res.Tables[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("families rows = %d", len(tb.Rows))
	}
	// Every MAE cell must parse and be small (< 0.08 even at tiny
	// scale with few eval sizes).
	for _, row := range tb.Rows {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("cell %q: %v", cell, err)
			}
			if v < 0 || v > 0.08 {
				t.Fatalf("MAE %v out of expected range in row %v", v, row)
			}
		}
	}
}

func TestFig51(t *testing.T) {
	res := runOne(t, "fig5.1")
	if len(res.Figures[0].Panels) != 2 {
		t.Fatal("want 2 panels")
	}
	// 3 Ks × 3 curves + LRU.
	if got := len(res.Figures[0].Panels[0].Series); got != 10 {
		t.Fatalf("series = %d, want 10", got)
	}
}

func TestFig52TypeSeparation(t *testing.T) {
	res := runOne(t, "fig5.2")
	if len(res.Figures) != 2 {
		t.Fatal("want Type A and Type B figures")
	}
	// Notes must report a larger mean K=1↔LRU gap for the Type A set
	// than for the Type B set on average.
	var gapA, gapB float64
	var nA, nB int
	for _, note := range res.Notes {
		var gap, conv float64
		if _, err := parseGapNote(note, &gap, &conv); err != nil {
			continue
		}
		if strings.Contains(note, "(A)") {
			gapA += gap
			nA++
		} else if strings.Contains(note, "(B)") {
			gapB += gap
			nB++
		}
	}
	if nA == 0 || nB == 0 {
		t.Fatalf("missing gap notes: %v", res.Notes)
	}
	if gapA/float64(nA) <= gapB/float64(nB) {
		t.Fatalf("Type A mean gap %.3f not larger than Type B %.3f", gapA/float64(nA), gapB/float64(nB))
	}
}

// parseGapNote extracts the two floats from a fig5.2 note.
func parseGapNote(note string, gap, conv *float64) (int, error) {
	i := strings.Index(note, "= ")
	if i < 0 {
		return 0, strconv.ErrSyntax
	}
	var rest string
	if _, err := fscan(note[i+2:], gap, &rest); err != nil {
		return 0, err
	}
	j := strings.LastIndex(note, "= ")
	if j <= i {
		return 0, strconv.ErrSyntax
	}
	if _, err := fscan(note[j+2:], conv, &rest); err != nil {
		return 0, err
	}
	return 2, nil
}

func fscan(s string, v *float64, rest *string) (int, error) {
	end := 0
	for end < len(s) && (s[end] == '.' || s[end] == '-' || (s[end] >= '0' && s[end] <= '9')) {
		end++
	}
	f, err := strconv.ParseFloat(s[:end], 64)
	if err != nil {
		return 0, err
	}
	*v = f
	*rest = s[end:]
	return 1, nil
}

func TestTable52(t *testing.T) {
	res := runOne(t, "table5.2")
	tb := res.Tables[0]
	if len(tb.Rows) != len(tinyOpts().Ks)+1 { // + average row
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows[:len(tb.Rows)-1] {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || v < 0 || v > 0.15 {
				t.Fatalf("byte MAE cell %q implausible", cell)
			}
		}
	}
}

func TestFig53UniVsVar(t *testing.T) {
	res := runOne(t, "fig5.3")
	if len(res.Figures[0].Panels) != 8 {
		t.Fatalf("panels = %d, want 8", len(res.Figures[0].Panels))
	}
}

func TestTable53Ordering(t *testing.T) {
	res := runOne(t, "table5.3")
	tb := res.Tables[0]
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 methods (6 serial + 2 sharded)", len(tb.Rows))
	}
	// The backward update must be faster per-request than the linear
	// baseline (shape assertion from Table 5.3).
	perM := map[string]float64{}
	for _, row := range tb.Rows {
		d, err := parseDuration(row[3])
		if err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		perM[row[0]] = d
	}
	if perM["Backward Stack Update"] >= perM["Basic Stack (linear update)"] {
		t.Fatalf("backward (%v) not faster than linear (%v)", perM["Backward Stack Update"], perM["Basic Stack (linear update)"])
	}
	// The spatial speedup only exists when the 8K-object floor leaves
	// a rate below 1 — at this tiny test scale sampling may be fully
	// disabled, so only assert when it was actually active.
	samplingActive := true
	for _, note := range res.Notes {
		if strings.Contains(note, "rate R = 1") {
			samplingActive = false
		}
	}
	if samplingActive && perM["Backward + Spatial"] >= perM["Backward Stack Update"]*1.5 {
		t.Fatalf("spatial sampling did not reduce cost")
	}
}

func parseDuration(s string) (float64, error) {
	d, err := time.ParseDuration(s)
	return float64(d), err
}

func TestFig54Overhead(t *testing.T) {
	res := runOne(t, "fig5.4")
	if len(res.Figures[0].Panels) != 3 {
		t.Fatalf("panels = %d, want 3 families", len(res.Figures[0].Panels))
	}
	for _, p := range res.Figures[0].Panels {
		for _, s := range p.Series {
			if s.Y[0] != 1 {
				t.Fatalf("%s/%s not normalized to K=1", p.Title, s.Name)
			}
		}
		// Swap positions must grow with K.
		swaps := p.Series[1]
		if swaps.Y[len(swaps.Y)-1] <= swaps.Y[0] {
			t.Fatalf("%s: swap overhead did not grow with K", p.Title)
		}
	}
}

// TestFig54FamilyOrder pins fig5.4's panel order: the CSV rows and
// the family each plot file holds must not change from run to run.
// Ranging over a map of families put them in the right order in only
// about three runs of four, so twenty runs catch that.
func TestFig54FamilyOrder(t *testing.T) {
	opt := tinyOpts()
	opt.Ks = []int{1, 2}
	opt.MaxRequests = 1000
	want := []string{"YCSB", "MSR", "Twitter"}
	for run := 0; run < 20; run++ {
		res, err := Run("fig5.4", opt)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, p := range res.Figures[0].Panels {
			got = append(got, p.Title)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("run %d: panel order %v, want %v", run, got, want)
		}
	}
}

func TestTable54(t *testing.T) {
	res := runOne(t, "table5.4")
	if len(res.Tables[0].Rows) != 3 {
		t.Fatal("want 3 methods")
	}
}

func TestFig55RedisValidation(t *testing.T) {
	res := runOne(t, "fig5.5")
	if len(res.Figures[0].Panels) != 3 {
		t.Fatal("want 3 traces")
	}
	for _, p := range res.Figures[0].Panels {
		if len(p.Series) != 3 {
			t.Fatalf("%s: series = %d", p.Title, len(p.Series))
		}
	}
}

func TestSpaceAccounting(t *testing.T) {
	res := runOne(t, "space")
	tb := res.Tables[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Sampling must reduce tracked objects monotonically.
	var prev float64 = -1
	for _, row := range tb.Rows {
		tracked, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && tracked > prev {
			t.Fatalf("tracked objects grew as rate fell: %v", tb.Rows)
		}
		prev = tracked
	}
}

func TestAblations(t *testing.T) {
	for _, id := range []string{"ablation.kprime", "ablation.replacement", "ablation.sizearray", "ablation.redis-sampling"} {
		runOne(t, id)
	}
}

func TestExtensions(t *testing.T) {
	for _, id := range []string{"ext.aet-crossover", "ext.analytic", "ext.minisim", "ext.policies", "ext.dlru", "ext.fleet", "ext.lru-baselines", "ext.opt-bound"} {
		runOne(t, id)
	}
}

func TestExtDLRUAdaptiveCompetitive(t *testing.T) {
	res, err := Run("ext.dlru", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The adaptive row must not be meaningfully worse than the best
	// fixed configuration.
	rows := res.Tables[0].Rows
	best := 2.0
	var adaptive float64
	for _, row := range rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(row[0], "fixed") && v < best {
			best = v
		}
		if strings.HasPrefix(row[0], "DLRU") {
			adaptive = v
		}
	}
	if adaptive > best+0.05 {
		t.Fatalf("adaptive %v much worse than best fixed %v", adaptive, best)
	}
}

func TestExtFleetWaterfillWins(t *testing.T) {
	res, err := Run("ext.fleet", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Column 4 is the predicted aggregate miss; the waterfill row must
	// be at or below both baselines.
	rows := res.Tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	miss := map[string]float64{}
	for _, row := range rows {
		v, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		miss[row[0]] = v
	}
	wf, ok := miss["waterfill"]
	if !ok {
		t.Fatalf("no waterfill row in %v", rows)
	}
	for _, base := range []string{"proportional", "uniform"} {
		v, ok := miss[base]
		if !ok {
			t.Fatalf("no %s row in %v", base, rows)
		}
		if wf > v+1e-9 {
			t.Fatalf("waterfill predicted %v worse than %s %v", wf, base, v)
		}
	}
}

func TestRenderASCIIEdgeCases(t *testing.T) {
	if out := RenderASCII(Panel{Title: "empty"}, 40, 10); !strings.Contains(out, "no data") {
		t.Fatalf("empty panel rendering: %q", out)
	}
	p := Panel{
		Title:  "flat",
		Series: []Series{{Name: "s", X: []float64{0, 1}, Y: []float64{0.5, 0.5}}},
	}
	out := RenderASCII(p, 10, 3) // forces minimum dimensions
	if !strings.Contains(out, "flat") || !strings.Contains(out, "s") {
		t.Fatalf("rendering lost content: %q", out)
	}
	single := Panel{Title: "pt", Series: []Series{{Name: "p", X: []float64{3}, Y: []float64{1}}}}
	if out := RenderASCII(single, 40, 8); !strings.Contains(out, "pt") {
		t.Fatal("single-point series must render")
	}
}
