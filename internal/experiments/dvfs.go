package experiments

import (
	"fmt"

	"cache8t/internal/core"
	"cache8t/internal/energy"
	"cache8t/internal/sram"
	"cache8t/internal/stats"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

// DVFS runs the §1 motivation end to end with the governor: a bursty demand
// trace is governed over a 12-level DVFS table, for each combination of
// cell (6T wall vs 8T) and write path (RMW tax vs WG+RB), using per-op
// energies measured from a real workload run. The bottom-right cell —
// 8T + WG+RB — is the paper's proposal; the table shows what each piece
// buys.
func DVFS(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("§1 quantified — governed cache energy on a bursty demand trace (mJ)",
		"write path", "6T cache", "8T cache", "8T saving")

	// Demand trace: mostly low demand with periodic bursts, the regime
	// DVFS exists for.
	var epochs []energy.Epoch
	for i := 0; i < 60; i++ {
		d := 0.2
		if i%12 < 2 {
			d = 0.95
		}
		epochs = append(epochs, energy.Epoch{DemandFrac: d, Ops: 200_000})
	}
	ap := sram.DefaultAlphaPower()
	levels, err := ap.Levels(sram.EightT.VminVolts(), 12)
	if err != nil {
		return nil, err
	}

	// Per-op energy at nominal from a representative workload run.
	prof, err := workload.ProfileByName("gcc")
	if err != nil {
		return nil, err
	}
	accs, err := workload.Take(prof, cfg.Seed, cfg.AccessesPerBench)
	if err != nil {
		return nil, err
	}
	for _, kind := range []core.Kind{core.RMW, core.WGRB} {
		res, err := core.RunStreamContext(cfg.ctx(), kind, cfg.Cache, cfg.Opts, trace.FromSlice(accs), 0, 0)
		if err != nil {
			return nil, err
		}
		em, err := sram.NewEnergyModel(res.Events.Config(), 1.0)
		if err != nil {
			return nil, err
		}
		opE := em.DynamicEnergy(res.Events) / float64(res.Requests.Accesses())
		leakW := em.LeakagePower()
		six, err := energy.Govern(epochs, levels, sram.SixT, opE, leakW)
		if err != nil {
			return nil, err
		}
		eight, err := energy.Govern(epochs, levels, sram.EightT, opE, leakW)
		if err != nil {
			return nil, err
		}
		t.AddRowf(kind.String(),
			fmt.Sprintf("%.4f", six.EnergyJ*1e3),
			fmt.Sprintf("%.4f", eight.EnergyJ*1e3),
			stats.Pct(1-eight.EnergyJ/six.EnergyJ))
	}
	return t, nil
}
