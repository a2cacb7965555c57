package timing

import (
	"context"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

func TestSimulateBankedValidation(t *testing.T) {
	if _, err := SimulateBanked(nil, Params{}, 4, true); err == nil {
		t.Error("zero params accepted")
	}
	if _, err := SimulateBanked(nil, DefaultParams(), 0, true); err == nil {
		t.Error("zero banks accepted")
	}
}

func TestBankedResolvesCrossBankConflicts(t *testing.T) {
	// Two queued RMWs in bank 0 followed by a demand read in bank 1: with
	// global ports the backed-up write path delays the read; with
	// sub-array-local write-back the read's bank is idle.
	ops := []core.PortOp{
		{IsRead: false, ReadRows: 1, WriteRows: 1, Bank: 0},
		{IsRead: false, ReadRows: 1, WriteRows: 1, Bank: 0},
		{IsRead: true, ReadRows: 1, Bank: 1},
	}
	global, err := SimulateBanked(ops, DefaultParams(), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	local, err := SimulateBanked(ops, DefaultParams(), 4, true)
	if err != nil {
		t.Fatal(err)
	}
	// Global: the second RMW waits a cycle for the write port, then the
	// read waits a cycle for the read port (same shape as the plain
	// simulator's hand example).
	if global.PortConflictCycles != 2 {
		t.Errorf("global conflicts = %d, want 2", global.PortConflictCycles)
	}
	// Local: only the same-bank write-write conflict survives.
	if local.PortConflictCycles != 1 {
		t.Errorf("local conflicts = %d, want 1", local.PortConflictCycles)
	}
	if local.Cycles >= global.Cycles {
		t.Errorf("local write-back not faster: %d vs %d cycles", local.Cycles, global.Cycles)
	}
}

func TestBankedSameBankStillConflicts(t *testing.T) {
	// Park et al.'s caveat: "the sub-array performing write-back is not
	// available to any other cache access" — a same-bank read gains
	// nothing from locality.
	ops := []core.PortOp{
		{IsRead: false, ReadRows: 1, WriteRows: 1, Bank: 2},
		{IsRead: false, ReadRows: 1, WriteRows: 1, Bank: 2},
		{IsRead: true, ReadRows: 1, Bank: 2},
	}
	local, err := SimulateBanked(ops, DefaultParams(), 4, true)
	if err != nil {
		t.Fatal(err)
	}
	global, err := SimulateBanked(ops, DefaultParams(), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if local.PortConflictCycles != global.PortConflictCycles {
		t.Errorf("same-bank stream should see identical conflicts: local %d, global %d",
			local.PortConflictCycles, global.PortConflictCycles)
	}
	if local.PortConflictCycles == 0 {
		t.Error("same-bank read sailed through a busy sub-array")
	}
}

func TestBankedDegeneratesToSimulate(t *testing.T) {
	// With localWriteback=false the banked model must agree with the plain
	// simulator exactly.
	p, err := workload.ProfileByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	accs, err := workload.Take(p, 1, 20000)
	if err != nil {
		t.Fatal(err)
	}
	_, log, err := core.RunLogged(context.Background(), core.RMW, defaultCacheConfig(), core.Options{}, trace.FromSlice(accs), 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Simulate(log, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	banked, err := SimulateBanked(log, DefaultParams(), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if plain != banked {
		t.Errorf("global banked run diverged from plain:\n%+v\n%+v", plain, banked)
	}
}

func TestLocalRMWBeatsRMWUnderBankedSimulation(t *testing.T) {
	// End to end: the Park et al. organization must show fewer conflict
	// cycles than plain RMW on a real workload, while plain WG+RB beats
	// both (it removes the write-path row reads altogether).
	p, err := workload.ProfileByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	accs, err := workload.Take(p, 1, 50000)
	if err != nil {
		t.Fatal(err)
	}
	run := func(kind core.Kind, local bool) SimReport {
		_, log, err := core.RunLogged(context.Background(), kind, defaultCacheConfig(), core.Options{}, trace.FromSlice(accs), 0)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := SimulateBanked(log, DefaultParams(), 4, local)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rmw := run(core.RMW, false)
	localRMW := run(core.LocalRMW, true)
	wgrb := run(core.WGRB, false)
	if localRMW.PortConflictCycles >= rmw.PortConflictCycles {
		t.Errorf("local write-back conflicts %d not below RMW %d",
			localRMW.PortConflictCycles, rmw.PortConflictCycles)
	}
	if !(wgrb.Cycles < localRMW.Cycles && localRMW.Cycles < rmw.Cycles) {
		t.Errorf("cycle ordering violated: RMW %d, LocalRMW %d, WG+RB %d",
			rmw.Cycles, localRMW.Cycles, wgrb.Cycles)
	}
}

func defaultCacheConfig() cache.Config { return cache.DefaultConfig() }
