package timing

import (
	"context"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/trace"
	"cache8t/internal/workload"
)

func runKind(t *testing.T, kind core.Kind, accs []trace.Access) core.Result {
	t.Helper()
	res, err := core.RunStreamContext(context.Background(), kind, cache.DefaultConfig(), core.Options{}, trace.FromSlice(accs), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func benchStream(t *testing.T, name string, n int) []trace.Access {
	t.Helper()
	p, err := workload.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	accs, err := workload.Take(p, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	return accs
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{ArrayReadLatency: 0, SetBufLatency: 1, Subarrays: 1},
		{ArrayReadLatency: 2, SetBufLatency: 0, Subarrays: 1},
		{ArrayReadLatency: 1, SetBufLatency: 2, Subarrays: 1},
		{ArrayReadLatency: 2, SetBufLatency: 1, Subarrays: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
	if _, err := Evaluate(core.Result{}, Params{}); err == nil {
		t.Error("Evaluate accepted zero params")
	}
}

func TestCPIOrderingAcrossControllers(t *testing.T) {
	// §5.5 quantified: RMW is the slowest (write-path port conflicts +
	// full-latency reads); WG removes most conflicts; WG+RB additionally
	// shortens read latency. Conventional 6T has no RMW at all.
	accs := benchStream(t, "bwaves", 100000)
	params := DefaultParams()
	cpi := map[core.Kind]float64{}
	for _, k := range []core.Kind{core.Conventional, core.RMW, core.LocalRMW, core.WG, core.WGRB} {
		rep, err := Evaluate(runKind(t, k, accs), params)
		if err != nil {
			t.Fatal(err)
		}
		cpi[k] = rep.CPI()
	}
	if !(cpi[core.WGRB] < cpi[core.WG]) {
		t.Errorf("WG+RB CPI %.4f not below WG %.4f", cpi[core.WGRB], cpi[core.WG])
	}
	if !(cpi[core.WG] < cpi[core.RMW]) {
		t.Errorf("WG CPI %.4f not below RMW %.4f", cpi[core.WG], cpi[core.RMW])
	}
	if !(cpi[core.LocalRMW] < cpi[core.RMW]) {
		t.Errorf("LocalRMW CPI %.4f not below RMW %.4f", cpi[core.LocalRMW], cpi[core.RMW])
	}
	if !(cpi[core.Conventional] < cpi[core.RMW]) {
		t.Errorf("Conventional CPI %.4f not below RMW %.4f", cpi[core.Conventional], cpi[core.RMW])
	}
	for k, v := range cpi {
		if v < 1 {
			t.Errorf("%v CPI %.4f below 1 (impossible for in-order issue)", k, v)
		}
	}
}

func TestAvgReadLatencyDropsWithBypass(t *testing.T) {
	accs := benchStream(t, "gamess", 100000) // read-bypass-friendly
	params := DefaultParams()
	wg, _ := Evaluate(runKind(t, core.WG, accs), params)
	rb, _ := Evaluate(runKind(t, core.WGRB, accs), params)
	if !(rb.AvgReadLatency < wg.AvgReadLatency) {
		t.Errorf("WG+RB avg read latency %.3f not below WG %.3f",
			rb.AvgReadLatency, wg.AvgReadLatency)
	}
	if wg.AvgReadLatency != float64(params.ArrayReadLatency) {
		t.Errorf("WG avg read latency %.3f, want %d (no bypass)",
			wg.AvgReadLatency, params.ArrayReadLatency)
	}
}

func TestConflictStallsComeFromWritePathReads(t *testing.T) {
	// A pure-read stream has zero conflict stalls under any controller.
	var reads []trace.Access
	for i := 0; i < 1000; i++ {
		reads = append(reads, trace.Access{Kind: trace.Read, Addr: uint64(i * 8), Size: 8, Gap: 2})
	}
	rep, err := Evaluate(runKind(t, core.RMW, reads), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConflictStallCycles != 0 {
		t.Errorf("pure-read stream has %f conflict stalls", rep.ConflictStallCycles)
	}
}

func TestReportDerived(t *testing.T) {
	r := Report{Instructions: 100, Cycles: 150}
	if r.CPI() != 1.5 {
		t.Errorf("CPI = %v", r.CPI())
	}
	base := Report{Instructions: 100, Cycles: 300}
	if got := r.Speedup(base); got != 2 {
		t.Errorf("Speedup = %v", got)
	}
	var zero Report
	if zero.CPI() != 0 || zero.Speedup(base) != 0 {
		t.Error("zero report derived values nonzero")
	}
}

func TestPortUtilizationBounds(t *testing.T) {
	accs := benchStream(t, "lbm", 50000)
	for _, k := range []core.Kind{core.RMW, core.WG, core.WGRB} {
		rep, err := Evaluate(runKind(t, k, accs), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if rep.ReadPortUtilization < 0 || rep.ReadPortUtilization > 1 {
			t.Errorf("%v read-port utilization %.3f out of [0,1]", k, rep.ReadPortUtilization)
		}
		if rep.WritePortUtilization < 0 || rep.WritePortUtilization > 1 {
			t.Errorf("%v write-port utilization %.3f out of [0,1]", k, rep.WritePortUtilization)
		}
	}
}

func TestWGImprovesReadPortAvailability(t *testing.T) {
	// §4.1: "Besides RMW operation frequency reduction, WG increases read
	// port availability."
	accs := benchStream(t, "bwaves", 100000)
	rmw, _ := Evaluate(runKind(t, core.RMW, accs), DefaultParams())
	wg, _ := Evaluate(runKind(t, core.WG, accs), DefaultParams())
	if !(wg.ReadPortUtilization < rmw.ReadPortUtilization) {
		t.Errorf("WG read-port utilization %.3f not below RMW %.3f",
			wg.ReadPortUtilization, rmw.ReadPortUtilization)
	}
}
