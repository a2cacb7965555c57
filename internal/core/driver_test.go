package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/sram"
	"cache8t/internal/trace"
)

// sameResult compares two run results field-for-field, ignoring only the
// event-ledger pointer identity (its counts are compared instead). Streamed
// runs must be *identical* to materialized runs, not merely close.
func sameResult(t *testing.T, got, want Result) {
	t.Helper()
	gc, wc := got, want
	gc.Events, wc.Events = nil, nil
	if !reflect.DeepEqual(gc, wc) {
		t.Fatalf("result mismatch:\n got %+v\nwant %+v", gc, wc)
	}
	if got.Events == nil || want.Events == nil {
		t.Fatal("missing event ledger")
	}
	for _, e := range sram.Events() {
		if got.Events.Count(e) != want.Events.Count(e) {
			t.Fatalf("event %v: got %d, want %d", e, got.Events.Count(e), want.Events.Count(e))
		}
	}
}

// TestRunStreamMatchesRunAllKindsAllBatchSizes runs every kind through the
// batched, read-ahead RunStreamContext at several batch sizes and requires
// the unbatched feedDirect result exactly.
func TestRunStreamMatchesRunAllKindsAllBatchSizes(t *testing.T) {
	accs := randomStream(11, 6000, 8192)
	for _, kind := range Kinds() {
		want := feedDirect(t, kind, smallCfg(), Options{}, accs)
		for _, bs := range []int{1, 7, 17, 512, 4096, 0} {
			got, err := RunStreamContext(context.Background(), kind, smallCfg(), Options{}, trace.FromSlice(accs), 0, bs)
			if err != nil {
				t.Fatalf("%v batch %d: %v", kind, bs, err)
			}
			sameResult(t, got, want)
		}
	}
}

func TestRunStreamHonorsMax(t *testing.T) {
	accs := randomStream(12, 5000, 8192)
	const max = 1234
	want := feedDirect(t, WG, smallCfg(), Options{}, accs[:max])
	got, err := RunStreamContext(context.Background(), WG, smallCfg(), Options{}, trace.FromSlice(accs), max, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got, want)
	if got.Requests.Accesses() != max {
		t.Fatalf("streamed %d accesses, want %d", got.Requests.Accesses(), max)
	}
}

func TestRunStreamOverBinaryTraceMatchesSlice(t *testing.T) {
	accs := randomStream(13, 3000, 8192)
	got, err := RunStreamContext(context.Background(), WGRB, smallCfg(), Options{},
		trace.NewReader(bytes.NewReader(encodeTrace(t, accs))), 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got, feedDirect(t, WGRB, smallCfg(), Options{}, accs))
}

func TestRunStreamSurfacesDecodeError(t *testing.T) {
	accs := randomStream(14, 2000, 8192)
	var buf bytes.Buffer
	if _, err := trace.WriteAll(&buf, trace.FromSlice(accs), 0); err != nil {
		t.Fatal(err)
	}
	// Dropping one byte always cuts mid-record (the shortest record is
	// several bytes), so the decode must fail rather than end cleanly.
	truncated := buf.Bytes()[:buf.Len()-1]
	_, err := RunStreamContext(context.Background(), RMW, smallCfg(), Options{}, trace.NewReader(bytes.NewReader(truncated)), 0, 128)
	var se *StreamError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StreamError", err)
	}
	if !errors.Is(se, io.ErrUnexpectedEOF) {
		t.Fatalf("unwrapped err = %v, want unexpected EOF", se.Err)
	}
	if se.Accesses == 0 || se.Accesses >= uint64(len(accs)) {
		t.Fatalf("StreamError.Accesses = %d out of (0, %d)", se.Accesses, len(accs))
	}
}

func TestRunStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunStreamContext(ctx, RMW, smallCfg(), Options{},
		trace.FromSlice(randomStream(15, 100, 4096)), 0, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunEachStreamMatchesRunAll runs all kinds over one shared decode and
// requires each to equal its own unbatched feedDirect run.
func TestRunEachStreamMatchesRunAll(t *testing.T) {
	accs := randomStream(16, 4000, 8192)
	kinds := Kinds()
	got, err := RunEachStream(context.Background(), kinds, smallCfg(), Options{}, sliceOpener(accs), 0, 333)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(kinds) {
		t.Fatalf("got %d results, want %d", len(got), len(kinds))
	}
	for i, k := range kinds {
		sameResult(t, got[i], feedDirect(t, k, smallCfg(), Options{}, accs))
	}
}

func TestRunEachStreamPropagatesOpenError(t *testing.T) {
	wantErr := errors.New("open failed")
	_, err := RunEachStream(context.Background(), []Kind{RMW}, smallCfg(), Options{},
		func() (trace.Stream, error) { return nil, wantErr }, 0, 0)
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

func TestDriverCountsFeeds(t *testing.T) {
	accs := randomStream(17, 100, 4096)
	c, err := cache.New(smallCfg(), newMem())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(WG, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(ctrl)
	d.Feed(accs[:40])
	d.Feed(accs[40:])
	if d.Accesses() != uint64(len(accs)) {
		t.Fatalf("Accesses = %d, want %d", d.Accesses(), len(accs))
	}
	r := d.Finish()
	if r.Requests.Accesses() != uint64(len(accs)) {
		t.Fatalf("finalized %d requests, want %d", r.Requests.Accesses(), len(accs))
	}
}
