package core

import (
	"context"
	"math"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/trace"
)

func TestAnalyzeScenarioBreakdown(t *testing.T) {
	g := cache.MustGeometry(1024, 2, 32)
	sameSet := uint64(0)
	otherSet := uint64(g.BlockBytes) // set 1
	r := func(addr uint64) trace.Access { return trace.Access{Kind: trace.Read, Addr: addr, Size: 4} }
	w := func(addr, v uint64) trace.Access {
		return trace.Access{Kind: trace.Write, Addr: addr, Size: 4, Data: v}
	}
	stream := []trace.Access{
		r(sameSet), r(sameSet), // RR same-set
		w(sameSet, 1), w(sameSet, 2), // RW then WW same-set
		r(sameSet),     // WR same-set
		r(otherSet),    // different set: not counted in scenarios
		w(otherSet, 3), // RW same-set (both in set 1)
	}
	a := Analyze(trace.FromSlice(stream), g, 0)
	if a.Pairs != 6 {
		t.Fatalf("Pairs = %d, want 6", a.Pairs)
	}
	if a.SameSet != 5 {
		t.Fatalf("SameSet = %d, want 5", a.SameSet)
	}
	if a.Scenario[trace.Read][trace.Read] != 1 {
		t.Errorf("RR = %d", a.Scenario[trace.Read][trace.Read])
	}
	if a.Scenario[trace.Read][trace.Write] != 2 {
		t.Errorf("RW = %d", a.Scenario[trace.Read][trace.Write])
	}
	if a.Scenario[trace.Write][trace.Write] != 1 {
		t.Errorf("WW = %d", a.Scenario[trace.Write][trace.Write])
	}
	if a.Scenario[trace.Write][trace.Read] != 1 {
		t.Errorf("WR = %d", a.Scenario[trace.Write][trace.Read])
	}
	// Shares sum to the same-set share.
	sum := a.RR() + a.RW() + a.WR() + a.WW()
	if math.Abs(sum-a.SameSetFrac()) > 1e-12 {
		t.Errorf("scenario shares %.4f != same-set share %.4f", sum, a.SameSetFrac())
	}
}

func TestAnalyzeSilentWrites(t *testing.T) {
	g := cache.MustGeometry(1024, 2, 32)
	stream := []trace.Access{
		{Kind: trace.Write, Addr: 0, Size: 4, Data: 5},  // non-silent
		{Kind: trace.Write, Addr: 0, Size: 4, Data: 5},  // silent
		{Kind: trace.Write, Addr: 0, Size: 4, Data: 6},  // non-silent
		{Kind: trace.Write, Addr: 64, Size: 4, Data: 0}, // silent (zero memory)
	}
	a := Analyze(trace.FromSlice(stream), g, 0)
	if a.SilentWrites != 2 {
		t.Fatalf("SilentWrites = %d, want 2", a.SilentWrites)
	}
	if got := a.SilentFrac(); got != 0.5 {
		t.Fatalf("SilentFrac = %v, want 0.5", got)
	}
}

func TestAnalyzeEmptyAndZeroGuards(t *testing.T) {
	g := cache.MustGeometry(1024, 2, 32)
	a := Analyze(trace.FromSlice(nil), g, 0)
	if a.SameSetFrac() != 0 || a.SilentFrac() != 0 || a.RR() != 0 {
		t.Error("empty analysis produced nonzero fractions")
	}
}

func TestAnalyzeRespectsMax(t *testing.T) {
	g := cache.MustGeometry(1024, 2, 32)
	stream := make([]trace.Access, 100)
	for i := range stream {
		stream[i] = trace.Access{Kind: trace.Read, Size: 4}
	}
	a := Analyze(trace.FromSlice(stream), g, 10)
	if a.Stats.Accesses() != 10 {
		t.Fatalf("analyzed %d, want 10", a.Stats.Accesses())
	}
}

func TestAnalyzeMatchesControllerSilentCount(t *testing.T) {
	// The analyzer's silent-write count and WG's comparator count agree on
	// streams without evictions (both see the same architectural values).
	stream := randomStream(77, 2000, 2048) // fits in 64KB cache: no evictions
	cfg := cache.DefaultConfig()
	g := cache.MustGeometry(cfg.SizeBytes, cfg.Ways, cfg.BlockBytes)
	a := Analyze(trace.FromSlice(stream), g, 0)
	r, err := RunStreamContext(context.Background(), WG, cfg, Options{}, trace.FromSlice(stream), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.SilentWrites != r.Counters.SilentWrites {
		t.Errorf("analyzer silent %d != WG silent %d", a.SilentWrites, r.Counters.SilentWrites)
	}
}
