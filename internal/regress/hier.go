package regress

import (
	"fmt"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/energy"
	"cache8t/internal/experiments"
	"cache8t/internal/report"
	"cache8t/internal/sram"
	"cache8t/internal/stats"
	"cache8t/internal/timing"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// hierBands tolerates float reassociation only where a metric is itself a
// float computation: per-request means, the TS replay overhead, and the 9T
// repricing ratios. Every event count compares exactly — the L2-visible
// totals are the check's point, and any change means the hierarchy bridge or
// a controller changed.
var hierBands = report.Bands{
	"mean.":              {Abs: 0.0025},
	"ts.replay_overhead": {Abs: 0.0025},
	"nine_t.":            {Rel: 1e-9},
}

// hierEnergyBench is the benchmark the TS and 9T comparison points run on:
// the write-heavy profile the paper's own worked numbers lean on.
const hierEnergyBench = "bwaves"

// buildHier pins the multi-level story in one artifact (ISSUE: PR 10):
//
//   - the L2-visible-traffic delta across L1 schemes — RMW and WG+RB sit on
//     the kind-independent functional floor, plain WG above it by exactly its
//     premature Set-Buffer write-backs (per-benchmark exact counts plus
//     banded per-request means);
//   - a TS timing-speculation comparison point — the deterministic replay
//     schedule's array-access overhead over the RMW baseline;
//   - a 9T cell-energy comparison point — the same WGRB ledger repriced
//     under the near-threshold 9T cell via energy.EvaluateCell.
//
// The build also asserts the functional floor directly (refill/write-back
// totals identical across kinds, WG's surplus exactly its premature count),
// so a bridge regression fails with a crisp error even before the golden
// diff renders.
func buildHier(opts Options) (*report.Artifact, error) {
	shape := cache.DefaultConfig()
	l2 := experiments.HierL2Shape(shape)
	a := newArtifact(opts, "hier", shape)
	a.SetConfig("l2_size_bytes", l2.SizeBytes)
	a.SetConfig("l2_ways", l2.Ways)
	a.SetConfig("l2_block_bytes", l2.BlockBytes)
	a.SetConfig("l2_controller", core.RMW.String())
	a.SetConfig("energy_bench", hierEnergyBench)

	rows, err := experiments.HierMatrix(opts.expConfig())
	if err != nil {
		return nil, err
	}
	kinds := experiments.HierKinds()
	names := []string{"rmw", "wg", "wgrb"}
	perReq := make([][]float64, len(kinds))
	for i, prof := range workload.Profiles() {
		pts := rows[i].Points
		base := pts[0]
		for j := range kinds {
			p := pts[j]
			if p.Refills != base.Refills || p.Writebacks != base.Writebacks {
				return nil, fmt.Errorf("hier: %s: %s functional stream diverged from RMW (refills %d vs %d, writebacks %d vs %d)",
					prof.Name, names[j], p.Refills, base.Refills, p.Writebacks, base.Writebacks)
			}
			if p.L2Visible != base.L2Visible+p.PrematureWBs {
				return nil, fmt.Errorf("hier: %s: %s L2-visible total %d is not floor %d + premature %d",
					prof.Name, names[j], p.L2Visible, base.L2Visible, p.PrematureWBs)
			}
			a.SetMetric(names[j]+".l2_visible."+prof.Name, float64(p.L2Visible))
			perReq[j] = append(perReq[j], p.PerRequest)
		}
		a.SetMetric("wg.premature_wbs."+prof.Name, float64(pts[1].PrematureWBs))
		a.SetMetric("l2_array_accesses."+prof.Name, float64(pts[0].L2ArrayAccesses))
	}
	for j := range kinds {
		a.SetMetric("mean.l2_visible_per_request."+names[j], stats.Mean(perReq[j]))
	}

	// Single-level comparison points on one benchmark: TS replay overhead
	// and the 9T repricing of the WGRB ledger.
	prof, err := workload.ProfileByName(hierEnergyBench)
	if err != nil {
		return nil, err
	}
	accs, err := workload.Take(prof, opts.Seed, opts.N)
	if err != nil {
		return nil, err
	}
	var rmwAcc, tsAcc uint64
	var wgrbRes core.Result
	for _, k := range []core.Kind{core.RMW, core.KindTS, core.WGRB} {
		res, err := core.RunStreamContext(opts.ctx(), k, shape, core.Options{}, trace.FromSlice(accs), 0, 0)
		if err != nil {
			return nil, err
		}
		switch k {
		case core.RMW:
			rmwAcc = res.ArrayAccesses()
		case core.KindTS:
			tsAcc = res.ArrayAccesses()
		case core.WGRB:
			wgrbRes = res
		}
	}
	a.SetMetric("ts.array_accesses", float64(tsAcc))
	a.SetMetric("ts.rmw_array_accesses", float64(rmwAcc))
	a.SetMetric("ts.replay_overhead", float64(tsAcc)/float64(rmwAcc)-1)

	nominal := sram.OperatingPoint{VoltageV: 1.0, FreqMHz: 2000}
	tp := timing.DefaultParams()
	baseRep, err := energy.Evaluate(wgrbRes, nominal, tp)
	if err != nil {
		return nil, err
	}
	nineRep, err := energy.EvaluateCell(wgrbRes, sram.NineT, nominal, tp)
	if err != nil {
		return nil, err
	}
	a.SetMetric("nine_t.dynamic_ratio", nineRep.DynamicJ/baseRep.DynamicJ)
	a.SetMetric("nine_t.leakage_ratio", nineRep.LeakageJ/baseRep.LeakageJ)
	a.SetMetric("nine_t.total_ratio", nineRep.TotalJ()/baseRep.TotalJ())
	return a, nil
}
