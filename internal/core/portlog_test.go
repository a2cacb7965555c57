package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/trace"
)

func TestLoggedControllerRecordsPerRequestOps(t *testing.T) {
	cfg := smallCfg()
	c, err := cache.New(cfg, newMem())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(RMW, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Kind() != RMW {
		t.Fatalf("Kind = %v", ctrl.Kind())
	}
	var log []PortOp
	logged, err := newLogged(ctrl, &log)
	if err != nil {
		t.Fatal(err)
	}
	g := c.Geometry()
	logged.Access(trace.Access{Kind: trace.Write, Addr: 0, Size: 8, Data: 1, Gap: 3})
	logged.Access(trace.Access{Kind: trace.Read, Addr: uint64(5 * g.BlockBytes), Size: 8, Gap: 1})
	if len(log) != 2 {
		t.Fatalf("logged %d ops", len(log))
	}
	w, r := log[0], log[1]
	if w.IsRead || w.ReadRows != 1 || w.WriteRows != 1 || w.Gap != 3 {
		t.Errorf("write op = %+v", w)
	}
	if !r.IsRead || r.ReadRows != 1 || r.WriteRows != 0 || r.Gap != 1 {
		t.Errorf("read op = %+v", r)
	}
	// Bank = set / rowsPerBank with 4 sub-arrays over 16 sets -> 4 rows/bank.
	if want := uint16(5 / (g.Sets / 4)); r.Bank != want {
		t.Errorf("read bank = %d, want %d", r.Bank, want)
	}
	logged.Finalize()
}

func TestRunLoggedBasics(t *testing.T) {
	stream := randomStream(7, 500, 4096)
	res, log, err := RunLogged(context.Background(), WGRB, smallCfg(), Options{}, trace.FromSlice(stream), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != len(stream) {
		t.Fatalf("logged %d ops for %d accesses", len(log), len(stream))
	}
	var bypassed int
	for _, op := range log {
		if op.IsRead && op.SetBufOps > 0 {
			bypassed++
		}
	}
	if uint64(bypassed) != res.Counters.BypassedReads {
		t.Errorf("logged bypasses %d != counter %d", bypassed, res.Counters.BypassedReads)
	}
	// Bad config propagates.
	bad := smallCfg()
	bad.Ways = 3
	if _, _, err := RunLogged(context.Background(), RMW, bad, Options{}, trace.FromSlice(stream), 0); err == nil {
		t.Error("bad config accepted")
	}
	if _, _, err := RunLogged(context.Background(), Kind(99), smallCfg(), Options{}, trace.FromSlice(stream), 0); err == nil {
		t.Error("bad kind accepted")
	}
}

// TestRunLoggedSharedLoop pins RunLogged to the batched run loop: a clean
// run returns RunStreamContext's Result with one PortOp per access, a trace
// truncated mid-record returns a *StreamError counting exactly the accesses
// before the cut, and a cancelled context returns context.Canceled.
func TestRunLoggedSharedLoop(t *testing.T) {
	accs := randomStream(19, 6000, 8192)
	enc := encodeTrace(t, accs)
	ctx := context.Background()

	want, err := RunStreamContext(ctx, WG, smallCfg(), Options{}, trace.FromSlice(accs), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, log, err := RunLogged(ctx, WG, smallCfg(), Options{}, trace.NewReader(bytes.NewReader(enc)), 0)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got, want)
	if len(log) != len(accs) {
		t.Fatalf("logged %d ops for %d accesses", len(log), len(accs))
	}

	// Keep the first cut records whole, then two bytes of the next one.
	const cut = 4321
	prefix := encodeTrace(t, accs[:cut])
	truncated := append(append([]byte(nil), prefix...), enc[len(prefix):len(prefix)+2]...)
	_, _, err = RunLogged(ctx, WG, smallCfg(), Options{}, trace.NewReader(bytes.NewReader(truncated)), 0)
	var se *StreamError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StreamError", err)
	}
	if !errors.Is(se, io.ErrUnexpectedEOF) {
		t.Fatalf("unwrapped err = %v, want unexpected EOF", se.Err)
	}
	if se.Accesses != cut {
		t.Fatalf("StreamError.Accesses = %d, want %d", se.Accesses, cut)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := RunLogged(cancelled, WG, smallCfg(), Options{}, trace.FromSlice(accs), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
