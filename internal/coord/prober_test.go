package coord

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestProberDrivesBreaker exercises the active health prober on a fake
// clock: a worker that stops answering /healthz has its breaker opened by
// probes alone (no dispatch ever sent), and once it answers again one probe
// success closes the breaker — without waiting out the cooldown.
func TestProberDrivesBreaker(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" || !healthy.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	clk := newFakeClock()
	c, err := New(Config{
		Workers:          []string{srv.URL},
		Clock:            clk,
		ProbeInterval:    time.Second,
		BreakerThreshold: 3,
		// A cooldown far longer than the test advances: the only way the
		// breaker closes again is a probe success, which is the property
		// under test.
		BreakerCooldown: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())

	// advanceUntil keeps ticking the fake clock until cond holds. Probes run
	// on real goroutines against the httptest server, so the test polls;
	// re-advancing is harmless — an advance that lands before the prober
	// re-arms its timer is simply absorbed by the next one.
	advanceUntil := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			clk.Advance(time.Second)
			time.Sleep(time.Millisecond)
		}
	}

	// Healthy worker: probes succeed, breaker stays closed.
	advanceUntil("first successful probe", func() bool { return c.met.probesOK.Load() >= 1 })
	if st := c.reg.snapshot(clk.Now())[0].Breaker; st != "closed" {
		t.Fatalf("breaker %q after successful probes, want closed", st)
	}

	// Kill the worker: threshold consecutive probe failures must open the
	// breaker with zero dispatches involved. The counters are read against
	// a baseline taken now: while healthy, a probe slower than its 1 s
	// fake-clock deadline (the clock runs 1 s per real millisecond here)
	// counts as a failure, and three of those in a row may already have
	// opened the breaker once before a success closed it again.
	opens0, failed0 := c.met.breakerOpens.Load(), c.met.probesFailed.Load()
	healthy.Store(false)
	advanceUntil("breaker opened by probes", func() bool {
		return c.met.breakerOpens.Load() > opens0 && c.met.probesFailed.Load()-failed0 >= 3
	})
	if got := c.met.probesFailed.Load() - failed0; got < 3 {
		t.Fatalf("breaker opened after %d failed probes, want >= threshold 3", got)
	}
	if st := c.reg.snapshot(clk.Now())[0].Breaker; st != "open" {
		t.Fatalf("breaker %q after probe failures, want open", st)
	}
	if w := c.reg.pick(clk.Now()); w != nil {
		t.Fatal("picker handed out a worker whose breaker the prober opened")
	}

	// Revive the worker: the next probe success closes the breaker even
	// though the hour-long cooldown has not elapsed.
	healthy.Store(true)
	before := c.met.probesOK.Load()
	advanceUntil("probe success after recovery", func() bool { return c.met.probesOK.Load() > before })
	advanceUntil("breaker closed by probe", func() bool {
		return c.reg.snapshot(clk.Now())[0].Breaker == "closed"
	})
	if w := c.reg.pick(clk.Now()); w == nil {
		t.Fatal("picker still refuses the recovered worker")
	}
}

// TestProberDisabledByDefault pins that a zero ProbeInterval starts no
// prober: the clock never ticks, and no probe counters move.
func TestProberDisabledByDefault(t *testing.T) {
	clk := newFakeClock()
	c, err := New(Config{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	clk.Advance(time.Hour)
	time.Sleep(5 * time.Millisecond)
	if n := c.met.probesOK.Load() + c.met.probesFailed.Load(); n != 0 {
		t.Fatalf("prober ran %d probes with ProbeInterval unset", n)
	}
}
