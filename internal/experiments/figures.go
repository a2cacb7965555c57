package experiments

import (
	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/stats"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// Fig3 reproduces Figure 3: read and write frequency as a fraction of
// executed instructions. Paper anchors: 26% reads / 14% writes on average;
// bwaves above 22% writes.
func Fig3(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 3 — memory access frequency (fraction of instructions)",
		"benchmark", "reads/instr", "writes/instr")
	g := cfg.geometry()
	var reads, writes []float64
	err := forEachBench(cfg, func(prof workload.Profile, src *workload.Source) error {
		s, err := src.Stream()
		if err != nil {
			return err
		}
		an := core.Analyze(s, g, 0)
		t.AddRowf(prof.Name, stats.Pct(an.Stats.ReadFrac()), stats.Pct(an.Stats.WriteFrac()))
		reads = append(reads, an.Stats.ReadFrac())
		writes = append(writes, an.Stats.WriteFrac())
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRowf("MEAN (measured)", stats.Pct(stats.Mean(reads)), stats.Pct(stats.Mean(writes)))
	t.AddRow("MEAN (paper)", "26.0%", "14.0%")
	return t, nil
}

// Fig4 reproduces Figure 4: the breakdown of consecutive accesses to the
// same cache set into RR/RW/WR/WW. Paper anchors: ~27% of consecutive
// accesses land in the same set on average; RR and WW dominate; bwaves has
// the largest WW share (~24%).
func Fig4(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 4 — consecutive same-set access scenarios (share of all pairs)",
		"benchmark", "RR", "RW", "WR", "WW", "same-set total")
	g := cfg.geometry()
	var rr, rw, wr, ww, ss []float64
	err := forEachBench(cfg, func(prof workload.Profile, src *workload.Source) error {
		s, err := src.Stream()
		if err != nil {
			return err
		}
		an := core.Analyze(s, g, 0)
		t.AddRowf(prof.Name, stats.Pct(an.RR()), stats.Pct(an.RW()),
			stats.Pct(an.WR()), stats.Pct(an.WW()), stats.Pct(an.SameSetFrac()))
		rr = append(rr, an.RR())
		rw = append(rw, an.RW())
		wr = append(wr, an.WR())
		ww = append(ww, an.WW())
		ss = append(ss, an.SameSetFrac())
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRowf("MEAN (measured)", stats.Pct(stats.Mean(rr)), stats.Pct(stats.Mean(rw)),
		stats.Pct(stats.Mean(wr)), stats.Pct(stats.Mean(ww)), stats.Pct(stats.Mean(ss)))
	t.AddRow("MEAN (paper)", "", "", "", "", "~27%")
	return t, nil
}

// Fig5 reproduces Figure 5: silent write frequency. Paper anchors: >42% of
// writes silent on average; bwaves ~77%.
func Fig5(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 5 — silent write frequency (share of writes)",
		"benchmark", "silent writes")
	g := cfg.geometry()
	var silent []float64
	err := forEachBench(cfg, func(prof workload.Profile, src *workload.Source) error {
		s, err := src.Stream()
		if err != nil {
			return err
		}
		an := core.Analyze(s, g, 0)
		t.AddRowf(prof.Name, stats.Pct(an.SilentFrac()))
		silent = append(silent, an.SilentFrac())
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRowf("MEAN (measured)", stats.Pct(stats.Mean(silent)))
	t.AddRow("MEAN (paper)", ">42%")
	return t, nil
}

// InflationRow is one benchmark's RMW-vs-conventional array traffic:
// absolute totals plus the relative increase, the §1 headline quantity.
type InflationRow struct {
	Conventional uint64
	RMW          uint64
	Increase     float64
}

// RMWInflation reproduces the §1 claim: "RMW increases cache access
// frequency by more than 32% on average (max 47%)" relative to a
// conventional write path.
func RMWInflation(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("RMW cache-access inflation vs conventional single-access writes",
		"benchmark", "conventional", "RMW", "increase")
	m, err := RunLanes(cfg, InflationLanes(cfg.Cache))
	if err != nil {
		return nil, err
	}
	rows := m.Inflation(cfg.Cache)
	var incs []float64
	for i, prof := range m.Profiles {
		r := rows[i]
		t.AddRowf(prof.Name, r.Conventional, r.RMW, stats.Pct(r.Increase))
		incs = append(incs, r.Increase)
	}
	t.AddRowf("MEAN (measured)", "", "", stats.Pct(stats.Mean(incs)))
	t.AddRowf("MAX (measured)", "", "", stats.Pct(stats.Max(incs)))
	t.AddRow("MEAN (paper)", "", "", ">32%")
	t.AddRow("MAX (paper)", "", "", "47%")
	return t, nil
}

// Fig8 reproduces the §4.3 worked example (see DESIGN.md E11 for the stream
// reconstruction): array-access totals per controller for the literal
// request stream Ra Wb Wb Rb Rb Wb Wa Rb Ra with a silent Wa.
func Fig8(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 8 — worked example: array accesses per scheme",
		"scheme", "array reads", "array writes", "total")
	stream := Fig8Stream(cfg.geometry())
	for _, k := range []core.Kind{core.Conventional, core.RMW, core.WG, core.WGRB} {
		res, err := core.RunStreamContext(cfg.ctx(), k, cfg.Cache, cfg.Opts, trace.FromSlice(stream), 0, 0)
		if err != nil {
			return nil, err
		}
		t.AddRowf(k.String(), res.ArrayReads, res.ArrayWrites, res.ArrayAccesses())
	}
	return t, nil
}

// Fig8Stream is the reconstructed §4.3 example stream over two sets a and b.
func Fig8Stream(g cache.Geometry) []trace.Access {
	addrA := uint64(0)
	addrB := uint64(g.BlockBytes)
	r := func(addr uint64) trace.Access {
		return trace.Access{Kind: trace.Read, Addr: addr, Size: 4}
	}
	w := func(addr, val uint64) trace.Access {
		return trace.Access{Kind: trace.Write, Addr: addr, Size: 4, Data: val}
	}
	return []trace.Access{
		r(addrA), w(addrB, 1), w(addrB, 2), r(addrB), r(addrB),
		w(addrB, 3), w(addrA, 0), r(addrB), r(addrA),
	}
}

// ReductionPair is one benchmark's WG and WG+RB access-frequency reductions
// versus the RMW baseline — the quantity Figures 9-11 chart.
type ReductionPair struct{ WG, WGRB float64 }

// reductionFigure builds a Figure 9/10-style table for one cache shape from
// the ReductionLanes over it; rows land in profile order.
func reductionFigure(cfg Config, title string, shape cache.Config, paperWG, paperRB string) (*stats.Table, error) {
	m, err := RunLanes(cfg, ReductionLanes(shape))
	if err != nil {
		return nil, err
	}
	pairs := m.Reductions(shape)
	t := stats.NewTable(title, "benchmark", "WG", "WG+RB")
	var wgs, rbs []float64
	for i, prof := range m.Profiles {
		t.AddRowf(prof.Name, stats.Pct(pairs[i].WG), stats.Pct(pairs[i].WGRB))
		wgs = append(wgs, pairs[i].WG)
		rbs = append(rbs, pairs[i].WGRB)
	}
	t.AddRowf("MEAN (measured)", stats.Pct(stats.Mean(wgs)), stats.Pct(stats.Mean(rbs)))
	t.AddRow("MEAN (paper)", paperWG, paperRB)
	return t, nil
}

// Fig9 reproduces Figure 9: cache access frequency reduction on the
// baseline 64 KB / 4-way / 32 B cache. Paper: WG 27%, WG+RB 33% on average;
// bwaves up to 47% under WG.
func Fig9(cfg Config) (*stats.Table, error) {
	return reductionFigure(cfg,
		"Figure 9 — access-frequency reduction vs RMW (64KB/4w/32B)",
		cfg.Cache, "27%", "33%")
}

// Fig10 reproduces Figure 10: the same reduction with a 32 KB cache and
// 64 B blocks. Paper: WG 29%, WG+RB 37% — larger blocks raise Set-Buffer
// hit rates.
func Fig10(cfg Config) (*stats.Table, error) {
	shape := cfg.Cache
	shape.SizeBytes = 32 * 1024
	shape.BlockBytes = 64
	return reductionFigure(cfg,
		"Figure 10 — access-frequency reduction vs RMW (32KB/4w/64B)",
		shape, "29%", "37%")
}

// Fig11 reproduces Figure 11: reduction at 32 KB and 128 KB capacities with
// 32 B blocks. Paper: WG 26.9%/26.6% and WG+RB 32.6%/32.1% — essentially
// insensitive to capacity. Both capacities' six lanes share one trace per
// benchmark.
func Fig11(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 11 — access-frequency reduction vs cache size (4w/32B)",
		"benchmark", "WG 32KB", "WG+RB 32KB", "WG 128KB", "WG+RB 128KB")
	small := cfg.Cache
	small.SizeBytes = 32 * 1024
	big := cfg.Cache
	big.SizeBytes = 128 * 1024
	m, err := RunLanes(cfg, append(ReductionLanes(small), ReductionLanes(big)...))
	if err != nil {
		return nil, err
	}
	smalls, bigs := m.Reductions(small), m.Reductions(big)
	var wgS, rbS, wgB, rbB []float64
	for i, prof := range m.Profiles {
		sm, bg := smalls[i], bigs[i]
		t.AddRowf(prof.Name, stats.Pct(sm.WG), stats.Pct(sm.WGRB), stats.Pct(bg.WG), stats.Pct(bg.WGRB))
		wgS = append(wgS, sm.WG)
		rbS = append(rbS, sm.WGRB)
		wgB = append(wgB, bg.WG)
		rbB = append(rbB, bg.WGRB)
	}
	t.AddRowf("MEAN (measured)", stats.Pct(stats.Mean(wgS)), stats.Pct(stats.Mean(rbS)),
		stats.Pct(stats.Mean(wgB)), stats.Pct(stats.Mean(rbB)))
	t.AddRow("MEAN (paper)", "26.9%", "32.6%", "26.6%", "32.1%")
	return t, nil
}
