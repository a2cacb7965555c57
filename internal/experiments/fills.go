package experiments

import (
	"cache8t/internal/stats"
)

// Fills answers the natural reviewer question about the paper's counting
// convention: its Pin tool counts request traffic only, ignoring the array
// operations that miss handling performs (line fills are partial-row writes
// — themselves RMWs on an interleaved 8T array — and dirty evictions read
// the row out). This experiment re-runs Figure 9 with miss traffic counted
// and shows the reductions shrink but survive.
func Fills(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Counting-convention sensitivity: reductions with miss traffic included",
		"counting", "WG", "WG+RB")
	for _, countFills := range []bool{false, true} {
		run := cfg
		run.Opts.CountFillTraffic = countFills
		m, err := RunLanes(run, ReductionLanes(cfg.Cache))
		if err != nil {
			return nil, err
		}
		var wgSum, rbSum float64
		for _, p := range m.Reductions(cfg.Cache) {
			wgSum += p.WG
			rbSum += p.WGRB
		}
		n := float64(len(m.Results))
		name := "requests only (paper)"
		if countFills {
			name = "requests + fills/evictions"
		}
		t.AddRowf(name, stats.Pct(wgSum/n), stats.Pct(rbSum/n))
	}
	return t, nil
}
