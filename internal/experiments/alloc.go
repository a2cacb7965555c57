package experiments

import (
	"fmt"

	"cache8t/internal/core"
	"cache8t/internal/stats"
)

// Alloc measures how the write-allocation policy changes the picture (an
// extension: the paper assumes write-allocate). Under no-write-allocate,
// missing stores bypass the array entirely, shrinking the RMW baseline —
// so both absolute traffic and the relative WG+RB reduction move. The table
// reports array accesses per request for RMW and WG+RB under both policies
// and the reduction each policy yields.
func Alloc(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Allocation-policy sensitivity (mean over benchmarks)",
		"policy", "RMW acc/req", "WG+RB acc/req", "WG+RB reduction")
	var lanes []core.Lane
	for _, noAlloc := range []bool{false, true} {
		shape := cfg.Cache
		shape.NoWriteAllocate = noAlloc
		lanes = append(lanes, core.Lane{Kind: core.RMW, Cache: shape}, core.Lane{Kind: core.WGRB, Cache: shape})
	}
	m, err := RunLanes(cfg, lanes)
	if err != nil {
		return nil, err
	}
	for i, name := range []string{"write-allocate (paper)", "no-write-allocate"} {
		var rmwSum, rbSum, redSum float64
		for _, res := range m.Results {
			rmw, rb := res[2*i], res[2*i+1]
			rmwSum += rmw.AccessesPerRequest()
			rbSum += rb.AccessesPerRequest()
			redSum += stats.Reduction(rb.ArrayAccesses(), rmw.ArrayAccesses())
		}
		n := float64(len(m.Results))
		t.AddRowf(name,
			fmt.Sprintf("%.3f", rmwSum/n),
			fmt.Sprintf("%.3f", rbSum/n),
			stats.Pct(redSum/n))
	}
	return t, nil
}
