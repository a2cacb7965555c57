package trace

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func broadcastAccesses(n int) []Access {
	out := make([]Access, n)
	for i := range out {
		k := Read
		if i%3 == 0 {
			k = Write
		}
		out[i] = Access{Addr: uint64(i) * 8, Data: uint64(i), Gap: uint32(i % 7), Size: 8, Kind: k}
	}
	return out
}

// collect drains sub on the calling goroutine, copying every batch (views
// are recycled slabs and must not be retained).
func collect(sub *Subscription) []Access {
	var got []Access
	for {
		batch, ok := sub.Next()
		if !ok {
			return got
		}
		got = append(got, batch...)
	}
}

// drainSized runs src through a one-subscriber Broadcast with batch length
// size and returns every access and the decode error, failing the test
// unless each batch is 1 to size accesses long.
func drainSized(t testing.TB, src Stream, size int) ([]Access, error) {
	t.Helper()
	b := NewBroadcast(src, size, 1, 0)
	defer b.Stop()
	sub := b.Sub(0)
	var got []Access
	for {
		batch, ok := sub.Next()
		if !ok {
			return got, b.Err()
		}
		if len(batch) == 0 || len(batch) > size {
			t.Fatalf("batch length %d outside (0, %d]", len(batch), size)
		}
		got = append(got, batch...)
	}
}

// fanOut drains every subscriber concurrently and returns what each saw.
func fanOut(b *Broadcast, nsubs int) [][]Access {
	got := make([][]Access, nsubs)
	var wg sync.WaitGroup
	for i := 0; i < nsubs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = collect(b.Sub(i))
		}(i)
	}
	wg.Wait()
	return got
}

func wantSame(t *testing.T, got, want []Access, sub int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("sub %d: got %d accesses, want %d", sub, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sub %d: access %d = %v, want %v", sub, i, got[i], want[i])
		}
	}
}

func TestBroadcastFanOutSlice(t *testing.T) {
	want := broadcastAccesses(10_000)
	b := NewBroadcast(FromSlice(want), 256, 4, 0)
	for i, got := range fanOut(b, 4) {
		wantSame(t, got, want, i)
	}
	if err := b.Err(); err != nil {
		t.Fatalf("Err() = %v, want nil", err)
	}
}

func TestBroadcastFanOutBatchSource(t *testing.T) {
	want := broadcastAccesses(5_000)
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, FromSlice(want), 0); err != nil {
		t.Fatal(err)
	}
	b := NewBroadcast(NewReader(bytes.NewReader(buf.Bytes())), 128, 3, 2)
	for i, got := range fanOut(b, 3) {
		wantSame(t, got, want, i)
	}
	if err := b.Err(); err != nil {
		t.Fatalf("Err() = %v, want nil", err)
	}
}

func TestBroadcastFanOutGenericStream(t *testing.T) {
	want := broadcastAccesses(3_000)
	// Limit wraps the slice in a plain Stream, forcing the per-access
	// Next fill path (no zero-copy, no ReadBatch).
	b := NewBroadcast(NewLimit(FromSlice(want), uint64(len(want))), 100, 2, 0)
	for i, got := range fanOut(b, 2) {
		wantSame(t, got, want, i)
	}
}

func TestBroadcastSingleSub(t *testing.T) {
	want := broadcastAccesses(1_000)
	b := NewBroadcast(FromSlice(want), 0, 1, 0)
	wantSame(t, collect(b.Sub(0)), want, 0)
}

// The three TestBatcher* tests keep the names of the tests of the removed
// Batcher iterator; they check the same decoder behaviours on a
// one-subscriber Broadcast, the shape of every unsharded run loop.

// TestBatcherMatchesSlice: at every batch length, each batch is 1 to size
// accesses long and the batches replay the slice exactly.
func TestBatcherMatchesSlice(t *testing.T) {
	want := broadcastAccesses(1_000)
	for _, size := range []int{1, 3, 64, 1000, 4096} {
		got, err := drainSized(t, FromSlice(want), size)
		if err != nil {
			t.Fatalf("size %d: Err = %v", size, err)
		}
		wantSame(t, got, want, 0)
	}
}

// TestBatcherUsesNativeBatchDecode: a binary Reader source takes the native
// ReadBatch path and decodes the trace exactly.
func TestBatcherUsesNativeBatchDecode(t *testing.T) {
	want := broadcastAccesses(777)
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, FromSlice(want), 0); err != nil {
		t.Fatal(err)
	}
	b := NewBroadcast(NewReader(bytes.NewReader(buf.Bytes())), 256, 1, 0)
	b.Stop()
	if b.dec.fast == nil {
		t.Fatal("Broadcast over *Reader did not take the BatchSource fast path")
	}
	got, err := drainSized(t, NewReader(bytes.NewReader(buf.Bytes())), 256)
	if err != nil {
		t.Fatalf("Err = %v", err)
	}
	wantSame(t, got, want, 0)
}

// TestBatcherSurfacesDecodeError: a record truncated mid-way ends the
// stream short of the whole trace and surfaces through Err.
func TestBatcherSurfacesDecodeError(t *testing.T) {
	in := broadcastAccesses(100)
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, FromSlice(in), 0); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()-3]
	got, err := drainSized(t, NewReader(bytes.NewReader(truncated)), 32)
	if len(got) >= len(in) {
		t.Fatalf("decoded %d accesses from a truncated trace", len(got))
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Err = %v, want unexpected EOF", err)
	}
}

func TestBroadcastSliceZeroCopy(t *testing.T) {
	want := broadcastAccesses(100)
	b := NewBroadcast(FromSlice(want), 64, 1, 0)
	batch, ok := b.Sub(0).Next()
	if !ok || len(batch) == 0 {
		t.Fatal("no first batch")
	}
	if &batch[0] != &want[0] {
		t.Error("slice-source batch is a copy; want a zero-copy view of the backing array")
	}
	b.Sub(0).Stop()
}

func TestBroadcastDecodeError(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, FromSlice(broadcastAccesses(2_000)), 0); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	b := NewBroadcast(NewReader(bytes.NewReader(full[:len(full)-1])), 64, 3, 0)
	got := fanOut(b, 3)
	if err := b.Err(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Err() = %v, want ErrUnexpectedEOF", err)
	}
	for i := 0; i < 3; i++ {
		if err := b.Sub(i).Err(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("sub %d Err() = %v, want ErrUnexpectedEOF", i, err)
		}
	}
	// All subscribers saw the same (truncated) prefix.
	for i := 1; i < 3; i++ {
		wantSame(t, got[i], got[0], i)
	}
}

func TestBroadcastEarlyStopOneSub(t *testing.T) {
	want := broadcastAccesses(20_000)
	b := NewBroadcast(FromSlice(want), 128, 3, 0)
	got := make([][]Access, 3)
	var wg sync.WaitGroup
	// Sub 0 abandons after one batch; the others must still see everything.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sub := b.Sub(0)
		if batch, ok := sub.Next(); !ok || len(batch) == 0 {
			t.Error("sub 0: no first batch")
		}
		sub.Stop()
		sub.Stop() // idempotent
	}()
	for i := 1; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = collect(b.Sub(i))
		}(i)
	}
	wg.Wait()
	for i := 1; i < 3; i++ {
		wantSame(t, got[i], want, i)
	}
}

func TestBroadcastAllStopEarly(t *testing.T) {
	// Every subscriber stops after the first batch; the decoder must exit
	// without draining the rest of the stream, and Stop must be safe to call
	// again on the whole Broadcast afterwards.
	src := FromSlice(broadcastAccesses(1 << 20))
	b := NewBroadcast(src, 64, 2, 0)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub := b.Sub(i)
			sub.Next()
			sub.Stop()
		}(i)
	}
	wg.Wait()
	b.Stop()
	if src.pos == len(src.accesses) {
		t.Error("decoder drained the whole stream despite every subscriber stopping")
	}
}

// TestBroadcastStopEndsDecode: once the last subscriber stops, the decoder
// finishes at most the batch it is filling and one more it was already
// waiting to fill, however long the source is. Many rounds, because the
// decoder's pace relative to Stop varies from round to round.
func TestBroadcastStopEndsDecode(t *testing.T) {
	const size = 64
	for round := 0; round < 200; round++ {
		var reads atomic.Int64
		src := Func(func() (Access, bool) {
			reads.Add(1)
			return Access{Size: 1}, true
		})
		b := NewBroadcast(src, size, 1, ReadAheadSlabs)
		sub := b.Sub(0)
		for i := 0; i < 3; i++ {
			if _, ok := sub.Next(); !ok {
				t.Fatal("endless source ran dry")
			}
		}
		before := reads.Load()
		b.Stop()
		if extra := reads.Load() - before; extra > 2*size {
			t.Fatalf("round %d: decoder read %d accesses after Stop, want <= %d", round, extra, 2*size)
		}
	}
}

func TestBroadcastSteadyStateNoAlloc(t *testing.T) {
	// Slabs circulate decoder → subscriber → free list: once the first batch
	// has primed the pool, consuming the rest of the stream allocates
	// nothing on any goroutine (AllocsPerRun reads global memstats, so the
	// decoder's allocations would show up here too).
	want := broadcastAccesses(512 * 200)
	b := NewBroadcast(FromSlice(want), 512, 1, 0)
	sub := b.Sub(0)
	if _, ok := sub.Next(); !ok {
		t.Fatal("no first batch")
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := sub.Next(); !ok {
			t.Fatal("stream ran dry mid-measurement")
		}
	}); n > 0 {
		t.Errorf("steady-state Next allocates %.1f times per batch, want 0", n)
	}
	b.Stop()
}

func TestBroadcastSlowSubscriberBackpressure(t *testing.T) {
	// The slab pool bounds decoder read-ahead: with k slabs the decoder is at
	// most k batches ahead of the slowest subscriber. The source counts what
	// has been decoded, and the invariant below holds at every instant, so
	// sampling it cannot flake.
	const (
		size  = 64
		slabs = 2
		total = 100_000
	)
	var produced atomic.Int64
	src := Func(func() (Access, bool) {
		n := produced.Add(1)
		if n > total {
			return Access{}, false
		}
		return Access{Addr: uint64(n), Size: 1}, true
	})
	b := NewBroadcast(src, size, 2, slabs)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// A fast subscriber does not loosen the bound: slabs recycle only
		// when the *slowest* subscriber releases them.
		defer wg.Done()
		collect(b.Sub(1))
	}()
	sub := b.Sub(0)
	consumed := 0
	// In flight at most: every pool slab (filled or queued) plus the batch
	// the decoder is blocked filling.
	const bound = (slabs + 1) * size
	for i := 0; i < 20; i++ {
		batch, ok := sub.Next()
		if !ok {
			t.Fatal("stream ran dry during backpressure check")
		}
		consumed += len(batch)
		time.Sleep(time.Millisecond) // let the decoder run as far as it can
		if p := int(produced.Load()); p > consumed+bound {
			t.Fatalf("decoder %d accesses ahead of slowest subscriber (produced %d, consumed %d), want <= %d",
				p-consumed, p, consumed, bound)
		}
	}
	sub.Stop()
	wg.Wait()
	b.Stop()
}

func TestBroadcastStopMidBatchRecycles(t *testing.T) {
	// A subscriber stopping while it still holds a batch must release that
	// slab back into circulation: the remaining subscriber needs every slab
	// to finish a stream much longer than the pool.
	want := broadcastAccesses(50_000)
	const slabs = 2
	b := NewBroadcast(FromSlice(want), 128, 2, slabs)
	quitter := b.Sub(0)
	if _, ok := quitter.Next(); !ok {
		t.Fatal("quitter: stream ended early")
	}
	quitter.Stop() // cur still held: Stop must release it
	got := collect(b.Sub(1))
	wantSame(t, got, want, 1)
	b.Stop()
}

func TestBroadcastEmptySource(t *testing.T) {
	b := NewBroadcast(FromSlice(nil), 64, 2, 0)
	for i, got := range fanOut(b, 2) {
		if len(got) != 0 {
			t.Fatalf("sub %d saw %d accesses from empty source", i, len(got))
		}
	}
	if err := b.Err(); err != nil {
		t.Fatalf("Err() = %v, want nil", err)
	}
}
