package timing

import (
	"context"
	"math"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

func loggedRun(t *testing.T, kind core.Kind, accs []trace.Access) (core.Result, []core.PortOp) {
	t.Helper()
	res, log, err := core.RunLogged(context.Background(), kind, cache.DefaultConfig(), core.Options{}, trace.FromSlice(accs), 0)
	if err != nil {
		t.Fatal(err)
	}
	return res, log
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(nil, Params{}); err == nil {
		t.Fatal("zero params accepted")
	}
	rep, err := Simulate(nil, DefaultParams())
	if err != nil || rep.Cycles != 0 {
		t.Fatalf("empty simulation: %+v, %v", rep, err)
	}
}

func TestSimulateHandExample(t *testing.T) {
	// Two back-to-back RMW writes then a dependent read: the second write
	// must wait for the first's ports, and the read must wait for the
	// second write's read phase.
	ops := []core.PortOp{
		{IsRead: false, ReadRows: 1, WriteRows: 1}, // issue 0, read port 0-1, write port 1-2
		{IsRead: false, ReadRows: 1, WriteRows: 1}, // issue 1, waits: read port free at 1, write at 2 -> start 2
		{IsRead: true, ReadRows: 1, Gap: 0},        // issue 2, read port free at 3 -> start 3, done 5
	}
	rep, err := Simulate(ops, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Instructions != 3 {
		t.Fatalf("instructions = %d", rep.Instructions)
	}
	if rep.PortConflictCycles != 2 {
		t.Fatalf("conflict cycles = %d, want 2 (1 for the write, 1 for the read)", rep.PortConflictCycles)
	}
	// Read issued at cycle 2, starts at 3, data at 3+2=5.
	if rep.AvgReadLatency != 3 {
		t.Fatalf("avg read latency = %v, want 3", rep.AvgReadLatency)
	}
	if rep.Cycles != 5 {
		t.Fatalf("cycles = %d, want 5", rep.Cycles)
	}
}

func TestSimulateGroupedWritesAreFree(t *testing.T) {
	// A grouped write (no array activity) never conflicts or stalls.
	ops := []core.PortOp{
		{IsRead: false, ReadRows: 1, WriteRows: 0}, // buffer fill
		{IsRead: false}, // grouped
		{IsRead: false}, // grouped
	}
	rep, err := Simulate(ops, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if rep.PortConflictCycles != 0 || rep.ReadStallCycles != 0 {
		t.Fatalf("grouped writes stalled: %+v", rep)
	}
	if rep.Cycles != 3 {
		t.Fatalf("cycles = %d, want 3 (pure issue)", rep.Cycles)
	}
}

func TestSimulateBypassedReadLatency(t *testing.T) {
	ops := []core.PortOp{
		{IsRead: true, SetBufOps: 1},
		{IsRead: true, ReadRows: 1},
	}
	p := DefaultParams()
	rep, err := Simulate(ops, p)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(p.SetBufLatency+p.ArrayReadLatency) / 2
	if rep.AvgReadLatency != want {
		t.Fatalf("avg read latency = %v, want %v", rep.AvgReadLatency, want)
	}
}

func TestRunLoggedMatchesResultTotals(t *testing.T) {
	p, err := workload.ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	accs, err := workload.Take(p, 1, 20000)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []core.Kind{core.RMW, core.WG, core.WGRB} {
		res, log := loggedRun(t, kind, accs)
		if len(log) != len(accs) {
			t.Fatalf("%v: %d ops for %d accesses", kind, len(log), len(accs))
		}
		var rr, ww uint64
		for _, op := range log {
			rr += uint64(op.ReadRows)
			ww += uint64(op.WriteRows)
		}
		// Finalize's buffer drain may add writes not attributed to any
		// request; everything else must reconcile exactly.
		if rr != res.ArrayReads {
			t.Errorf("%v: logged reads %d != result %d", kind, rr, res.ArrayReads)
		}
		if ww > res.ArrayWrites || res.ArrayWrites-ww > 1 {
			t.Errorf("%v: logged writes %d vs result %d", kind, ww, res.ArrayWrites)
		}
	}
}

func TestSimulatedOrderingMatchesAnalytic(t *testing.T) {
	// The discrete simulation and the analytic model must agree on the
	// §5.5 ordering: WG+RB < WG < RMW on cycles; and their CPIs should be
	// within a few percent of each other.
	p, err := workload.ProfileByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	accs, err := workload.Take(p, 1, 50000)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	cpiSim := map[core.Kind]float64{}
	cpiAna := map[core.Kind]float64{}
	for _, kind := range []core.Kind{core.RMW, core.WG, core.WGRB} {
		res, log := loggedRun(t, kind, accs)
		sim, err := Simulate(log, params)
		if err != nil {
			t.Fatal(err)
		}
		ana, err := Evaluate(res, params)
		if err != nil {
			t.Fatal(err)
		}
		cpiSim[kind] = sim.CPI()
		cpiAna[kind] = ana.CPI()
		if d := math.Abs(sim.CPI()-ana.CPI()) / ana.CPI(); d > 0.10 {
			t.Errorf("%v: simulated CPI %.4f vs analytic %.4f (%.1f%% apart)",
				kind, sim.CPI(), ana.CPI(), d*100)
		}
	}
	if !(cpiSim[core.WGRB] < cpiSim[core.WG] && cpiSim[core.WG] < cpiSim[core.RMW]) {
		t.Errorf("simulated CPI ordering violated: RMW %.4f WG %.4f WGRB %.4f",
			cpiSim[core.RMW], cpiSim[core.WG], cpiSim[core.WGRB])
	}
}

func TestSimulateCyclesNeverBelowInstructions(t *testing.T) {
	ops := []core.PortOp{{IsRead: false, Gap: 10}, {IsRead: false, Gap: 10}}
	rep, err := Simulate(ops, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles < rep.Instructions {
		t.Fatalf("cycles %d below instructions %d", rep.Cycles, rep.Instructions)
	}
}
