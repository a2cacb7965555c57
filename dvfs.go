package cache8t

import (
	"context"
	"fmt"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/energy"
	"cache8t/internal/sram"
	"cache8t/internal/timing"
	"cache8t/internal/workload"
)

// DVFSPoint is one operating level of a voltage/frequency sweep for a run.
type DVFSPoint struct {
	// VoltageV and FreqMHz define the level (frequency from an alpha-power
	// delay model anchored at 1.0 V / 2000 MHz).
	VoltageV float64
	FreqMHz  float64
	// SixTReachable and EightTReachable say whether a cache built from
	// each cell can operate at this level (its Vmin): the paper's §1
	// motivation is that the 6T cache walls off the lowest levels.
	SixTReachable   bool
	EightTReachable bool
	// EnergyPerAccessNJ is the modeled total (dynamic + leakage) cache
	// energy per demand access at this level, for the configured
	// controller on an 8T array.
	EnergyPerAccessNJ float64
	// CPI is the modeled cycles per instruction (frequency-independent in
	// this model; voltage only changes how many wall-clock seconds a cycle
	// takes).
	CPI float64
}

// DVFSSweep simulates n accesses of the named workload under cfg once, then
// prices the run across `levels` operating points descending from nominal
// voltage to just above threshold. It reports which points each cell kind
// can reach and the 8T energy at each reachable point.
func DVFSSweep(cfg Config, name string, seed uint64, n, levels int) ([]DVFSPoint, error) {
	if levels < 2 {
		return nil, fmt.Errorf("cache8t: need at least 2 DVFS levels, got %d", levels)
	}
	kind, err := core.ParseKind(cfg.Controller)
	if err != nil {
		return nil, err
	}
	if cfg.Replacement == "" {
		cfg.Replacement = "lru"
	}
	policy, err := cache.ParsePolicy(cfg.Replacement)
	if err != nil {
		return nil, err
	}
	gen, err := workload.Stream(name, seed)
	if err != nil {
		return nil, err
	}
	res, err := core.RunStreamContext(context.Background(), kind, cache.Config{
		SizeBytes:  cfg.CacheSizeBytes,
		Ways:       cfg.Ways,
		BlockBytes: cfg.BlockBytes,
		Policy:     policy,
		Seed:       cfg.Seed,
	}, core.Options{
		BufferDepth:          cfg.BufferDepth,
		DisableSilentElision: cfg.DisableSilentElision,
	}, gen, n, 0)
	if err != nil {
		return nil, err
	}

	ap := sram.DefaultAlphaPower()
	// Sweep down to just above the device threshold so the table spans
	// both cells' Vmin.
	points, err := ap.Levels(ap.VthVolts+0.05, levels)
	if err != nil {
		return nil, err
	}
	tp := timing.DefaultParams()
	trep, err := timing.Evaluate(res, tp)
	if err != nil {
		return nil, err
	}
	out := make([]DVFSPoint, 0, len(points))
	for _, pt := range points {
		dp := DVFSPoint{
			VoltageV:        pt.VoltageV,
			FreqMHz:         pt.FreqMHz,
			SixTReachable:   pt.VoltageV >= sram.SixT.VminVolts(),
			EightTReachable: pt.VoltageV >= sram.EightT.VminVolts(),
			CPI:             trep.CPI(),
		}
		if dp.EightTReachable {
			erep, err := energy.Evaluate(res, pt, tp)
			if err != nil {
				return nil, err
			}
			dp.EnergyPerAccessNJ = energy.PerAccessJ(erep, res.Requests.Accesses()) * 1e9
		}
		out = append(out, dp)
	}
	return out, nil
}
