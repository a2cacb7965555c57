package energy

import (
	"context"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/sram"
	"cache8t/internal/timing"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

func nominal() sram.OperatingPoint {
	return sram.OperatingPoint{VoltageV: 1.0, FreqMHz: 2000}
}

func runBench(t *testing.T, kind core.Kind, name string, n int) core.Result {
	t.Helper()
	p, err := workload.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	accs, err := workload.Take(p, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunStreamContext(context.Background(), kind, cache.DefaultConfig(), core.Options{}, trace.FromSlice(accs), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEvaluateValidation(t *testing.T) {
	res := runBench(t, core.RMW, "mcf", 1000)
	if _, err := Evaluate(res, sram.OperatingPoint{}, timing.DefaultParams()); err == nil {
		t.Error("zero operating point accepted")
	}
	if _, err := Evaluate(res, nominal(), timing.Params{}); err == nil {
		t.Error("zero timing params accepted")
	}
}

func TestEnergyOrderingAcrossControllers(t *testing.T) {
	// §5.5: WG and WG+RB "replace power hungry cache accesses with
	// accessing a smaller and hence more power efficient structure" — so
	// total energy must order WG+RB < WG < RMW.
	tp := timing.DefaultParams()
	var joules [3]float64
	for i, k := range []core.Kind{core.RMW, core.WG, core.WGRB} {
		rep, err := Evaluate(runBench(t, k, "bwaves", 80000), nominal(), tp)
		if err != nil {
			t.Fatal(err)
		}
		if rep.DynamicJ <= 0 || rep.LeakageJ <= 0 || rep.Seconds <= 0 {
			t.Fatalf("%v: non-positive energy components %+v", k, rep)
		}
		joules[i] = rep.TotalJ()
	}
	if !(joules[2] < joules[1] && joules[1] < joules[0]) {
		t.Errorf("energy ordering violated: RMW %.3e, WG %.3e, WG+RB %.3e",
			joules[0], joules[1], joules[2])
	}
}

func TestVoltageScalingCutsEnergy(t *testing.T) {
	res := runBench(t, core.WGRB, "gcc", 40000)
	tp := timing.DefaultParams()
	hi, err := Evaluate(res, sram.OperatingPoint{VoltageV: 1.0, FreqMHz: 2000}, tp)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := Evaluate(res, sram.OperatingPoint{VoltageV: 0.5, FreqMHz: 400}, tp)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo.DynamicJ < hi.DynamicJ/3) {
		t.Errorf("halving voltage cut dynamic energy only %.3e -> %.3e", hi.DynamicJ, lo.DynamicJ)
	}
	// Lower frequency means longer runtime, so leakage per run can rise —
	// just require it stays positive and finite.
	if lo.LeakageJ <= 0 {
		t.Error("leakage vanished at low voltage")
	}
}

func TestPerAccessJ(t *testing.T) {
	if PerAccessJ(Report{DynamicJ: 10}, 0) != 0 {
		t.Error("zero accesses should give 0")
	}
	if got := PerAccessJ(Report{DynamicJ: 10, LeakageJ: 2}, 4); got != 3 {
		t.Errorf("PerAccessJ = %v", got)
	}
}

func TestSweepMarksSixTWall(t *testing.T) {
	res := runBench(t, core.WGRB, "mcf", 20000)
	ap := sram.DefaultAlphaPower()
	points, err := ap.Levels(0.40, 8) // descends below the 6T Vmin of 0.7
	if err != nil {
		t.Fatal(err)
	}
	six, err := Sweep(res, sram.SixT, points, timing.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Sweep(res, sram.EightT, points, timing.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sixReach, eightReach := 0, 0
	for i := range points {
		if six[i].Reachable {
			sixReach++
			if six[i].Report.TotalJ() <= 0 {
				t.Error("reachable point has zero energy")
			}
		}
		if eight[i].Reachable {
			eightReach++
		}
	}
	if eightReach <= sixReach {
		t.Errorf("8T reaches %d points, 6T %d — 8T must reach more (the paper's premise)",
			eightReach, sixReach)
	}
	// The lowest 8T-reachable point must beat the lowest 6T-reachable
	// point on dynamic energy.
	var sixBest, eightBest float64
	for i := len(points) - 1; i >= 0; i-- {
		if sixBest == 0 && six[i].Reachable {
			sixBest = six[i].Report.DynamicJ
		}
		if eightBest == 0 && eight[i].Reachable {
			eightBest = eight[i].Report.DynamicJ
		}
	}
	if !(eightBest < sixBest) {
		t.Errorf("8T floor dynamic energy %.3e not below 6T floor %.3e", eightBest, sixBest)
	}
}

func TestEvaluateCell(t *testing.T) {
	res := runBench(t, core.WGRB, "bwaves", 40000)
	tp := timing.DefaultParams()
	base, err := Evaluate(res, nominal(), tp)
	if err != nil {
		t.Fatal(err)
	}

	// Repricing under the cell the run simulated with is exact identity.
	same, err := EvaluateCell(res, sram.EightT, nominal(), tp)
	if err != nil {
		t.Fatal(err)
	}
	if same != base {
		t.Fatalf("EvaluateCell(8T) = %+v, want the Evaluate baseline %+v", same, base)
	}

	// The 9T reprice keeps the event ledger and trades dynamic for static:
	// a heavier read bit line, roughly half the leakage.
	nine, err := EvaluateCell(res, sram.NineT, nominal(), tp)
	if err != nil {
		t.Fatal(err)
	}
	if nine.DynamicJ <= base.DynamicJ {
		t.Errorf("9T dynamic %.3e not above 8T %.3e", nine.DynamicJ, base.DynamicJ)
	}
	ratio := nine.LeakageJ / base.LeakageJ
	if ratio < 0.50 || ratio > 0.60 {
		t.Errorf("9T leakage ratio = %.3f, want ~0.55", ratio)
	}

	// The Vmin gate is per-cell: 0.30 V is reachable for 9T, not for 8T.
	low := sram.OperatingPoint{VoltageV: 0.30, FreqMHz: 400}
	if _, err := EvaluateCell(res, sram.NineT, low, tp); err != nil {
		t.Errorf("9T rejected 0.30 V above its 0.28 V floor: %v", err)
	}
	if _, err := EvaluateCell(res, sram.EightT, low, tp); err == nil {
		t.Error("8T accepted 0.30 V below its 0.35 V floor")
	}
}
