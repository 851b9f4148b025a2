package experiments

import (
	"fmt"
	"time"

	"krr/internal/model"
	"krr/internal/mrc"
)

func init() {
	register(Experiment{
		ID:          "ext.analytic",
		Title:       "Closed-form analytic tier vs stateful models (§6.2)",
		Description: "Che/Fagin closed forms against the K-LRU reference and the KRR stack: accuracy, runtime and resident footprint on a Type B and a Type A trace.",
		Run:         runExtAnalytic,
	})
}

// runExtAnalytic measures what the instant-estimate tier buys and
// costs: on IRM-like (Type B) traffic the closed forms should track
// the reference at a fraction of the stateful models' footprint; on
// scan/loop (Type A) traffic their error is structural — the
// popularity distribution alone cannot see cyclic reuse — and the
// table shows exactly how far off that puts them.
func runExtAnalytic(opt Options) (*Result, error) {
	var tables []Table
	for _, presetName := range []string{"ycsb-c-0.99", "loop"} {
		p := mustPreset(presetName)
		tr, sum, err := materialize(p, opt, false)
		if err != nil {
			return nil, err
		}
		sizes := evalSizes(sum.DistinctObjects, opt.SimSizes)
		k := opt.Ks[len(opt.Ks)/2]
		ref, err := simKLRU(tr, k, sizes, opt.Seed, 0)
		if err != nil {
			return nil, err
		}
		table := Table{
			Title: fmt.Sprintf("Analytic tier on %s (Type %s, %d requests, M=%d, K=%d)",
				p.Name, p.Type, tr.Len(), sum.DistinctObjects, k),
			Columns: []string{"model", "MAE vs K-LRU sim", "time", "footprint"},
		}
		for _, name := range []string{"che", "fagin", "krr", "aet"} {
			m, err := model.New(name, model.Options{K: k, Seed: opt.Seed})
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if err := model.ProcessAll(m, tr.Reader()); err != nil {
				return nil, err
			}
			curve := m.Snapshot().Object
			elapsed := time.Since(start)
			table.Rows = append(table.Rows, []string{
				name,
				f4(mrc.MAE(curve, ref, sizes)),
				dur(elapsed),
				fmt.Sprintf("%d B", m.Footprint()),
			})
		}
		tables = append(tables, table)
	}
	return &Result{
		Tables: tables,
		Notes: []string{
			"che/fagin keep no reuse state: a Space-Saving head sketch plus a HyperLogLog distinct estimate, O(1) in trace length and working set (DESIGN.md §14)",
			"Type A scans are out of model for the closed forms by construction; the loop table documents the structural error, matching the looser difftest envelopes",
		},
	}, nil
}
