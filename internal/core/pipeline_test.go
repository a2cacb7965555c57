package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cache8t/internal/cache"
	"cache8t/internal/mem"
	"cache8t/internal/trace"
)

// watchedSource wraps a binary trace Reader (keeping its native ReadBatch
// path) and records every read that starts after the run it feeds has
// returned. onRead, when set, runs before each read with the number of
// accesses handed out so far.
type watchedSource struct {
	r        *trace.Reader
	served   atomic.Int64
	returned atomic.Bool
	late     atomic.Int64
	onRead   func(served int64)
}

func newWatchedSource(enc []byte) *watchedSource {
	return &watchedSource{r: trace.NewReader(bytes.NewReader(enc))}
}

func (w *watchedSource) before() {
	if w.returned.Load() {
		w.late.Add(1)
	}
	if w.onRead != nil {
		w.onRead(w.served.Load())
	}
}

func (w *watchedSource) Next() (trace.Access, bool) {
	w.before()
	a, ok := w.r.Next()
	if ok {
		w.served.Add(1)
	}
	return a, ok
}

func (w *watchedSource) ReadBatch(dst []trace.Access) int {
	w.before()
	n := w.r.ReadBatch(dst)
	w.served.Add(int64(n))
	return n
}

func (w *watchedSource) Err() error { return w.r.Err() }

// afterReturn marks the run as returned and checks that no read starts
// afterwards and that no decoder goroutine is left running.
func (w *watchedSource) afterReturn(t *testing.T) {
	t.Helper()
	w.returned.Store(true)
	requireNoDecoder(t)
	time.Sleep(10 * time.Millisecond)
	if n := w.late.Load(); n != 0 {
		t.Fatalf("source read %d times after the run returned", n)
	}
}

// requireNoDecoder waits briefly for every Broadcast decoder goroutine to
// exit and fails if one is still running.
func requireNoDecoder(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(2 * time.Second); ; {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "trace.(*Broadcast).pump") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("decoder goroutine still running after the run returned:\n%s", stacks)
		}
		time.Sleep(time.Millisecond)
	}
}

// encodeTrace returns accs in the binary trace format.
func encodeTrace(t *testing.T, accs []trace.Access) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := trace.WriteAll(&buf, trace.FromSlice(accs), 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// feedDirect is the unpipelined reference: the same controller fed the
// accesses directly in one Feed, with no decoder, batching or read-ahead in
// between.
func feedDirect(t *testing.T, kind Kind, cfg cache.Config, opts Options, accs []trace.Access) Result {
	t.Helper()
	c, err := cache.New(cfg, mem.New())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(kind, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(ctrl)
	d.Feed(accs)
	return d.Finish()
}

// TestPipelinedRunLifecycle drives every unsharded core run loop through a
// clean end, a decode error in the middle of a batch, a cancellation and a
// checkpoint-sink failure. Each must return exactly what the unpipelined
// loop returned, leave no decoder goroutine behind, and never touch the
// source after returning.
func TestPipelinedRunLifecycle(t *testing.T) {
	const n, batch = 50_000, 1024
	accs := randomStream(31, n, 1<<15)
	enc := encodeTrace(t, accs)
	cfg := smallCfg()

	// Cut the trace in the middle of a record inside the fifth batch.
	cut := 4*batch + 300
	prefix := encodeTrace(t, accs[:cut])
	truncated := append(append([]byte(nil), prefix...), enc[len(prefix):len(prefix)+2]...)

	loops := []struct {
		name string
		run  func(ctx context.Context, s trace.Stream, sink CheckpointSink) (Result, error)
	}{
		{name: "RunStreamContext", run: func(ctx context.Context, s trace.Stream, _ CheckpointSink) (Result, error) {
			return RunStreamContext(ctx, WG, cfg, Options{}, s, 0, batch)
		}},
		{name: "RunLogged", run: func(ctx context.Context, s trace.Stream, _ CheckpointSink) (Result, error) {
			res, _, err := RunLogged(ctx, WG, cfg, Options{}, s, 0)
			return res, err
		}},
		{name: "RunStreamCheckpointedContext", run: func(ctx context.Context, s trace.Stream, sink CheckpointSink) (Result, error) {
			return RunStreamCheckpointedContext(ctx, WG, cfg, Options{}, s, 0, batch, 2, sink)
		}},
	}
	for _, lp := range loops {
		t.Run(lp.name+"/clean", func(t *testing.T) {
			src := newWatchedSource(enc)
			got, err := lp.run(context.Background(), src, nil)
			src.afterReturn(t)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, got, feedDirect(t, WG, cfg, Options{}, accs))
		})

		t.Run(lp.name+"/decode-error", func(t *testing.T) {
			src := newWatchedSource(truncated)
			_, err := lp.run(context.Background(), src, nil)
			src.afterReturn(t)
			var se *StreamError
			if !errors.As(err, &se) {
				t.Fatalf("err = %v, want *StreamError", err)
			}
			if se.Accesses != uint64(cut) {
				t.Fatalf("StreamError.Accesses = %d, want %d", se.Accesses, cut)
			}
		})

		t.Run(lp.name+"/cancel", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			src := newWatchedSource(enc)
			src.onRead = func(served int64) {
				if served >= 3*batch {
					cancel()
				}
			}
			_, err := lp.run(ctx, src, nil)
			src.afterReturn(t)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if served := src.served.Load(); served >= n {
				t.Fatalf("cancelled run decoded the whole trace (%d accesses)", served)
			}
		})
	}

	t.Run("RunStreamCheckpointedContext/sink-error", func(t *testing.T) {
		sinkErr := errors.New("disk full")
		var calls int
		var lastAt uint64
		sink := func(_ []byte, at uint64) error {
			calls++
			lastAt = at
			if calls == 2 {
				return sinkErr
			}
			return nil
		}
		src := newWatchedSource(enc)
		_, err := RunStreamCheckpointedContext(context.Background(), WG, cfg, Options{}, src, 0, batch, 2, sink)
		src.afterReturn(t)
		if !errors.Is(err, sinkErr) {
			t.Fatalf("err = %v, want the sink's error", err)
		}
		if calls != 2 || lastAt != 4*batch {
			t.Fatalf("sink called %d times, last at %d accesses; want 2 calls, last at %d", calls, lastAt, 4*batch)
		}
	})
}

// TestRunLanesMixedShapes runs lanes of different kinds over different
// cache shapes from one shared decode. Each lane must equal its own
// RunStreamContext run; a decode error must report exactly the accesses
// fed before it; a cancellation must stop the decode early; and no path may
// leave a decoder goroutine behind or read the source after returning.
func TestRunLanesMixedShapes(t *testing.T) {
	const n, batch = 50_000, 1024
	accs := randomStream(37, n, 1<<15)
	enc := encodeTrace(t, accs)
	wide := cache.Config{SizeBytes: 4096, Ways: 4, BlockBytes: 64, Policy: cache.LRU}
	fifo := cache.Config{SizeBytes: 2048, Ways: 4, BlockBytes: 16, Policy: cache.FIFO}
	lanes := []Lane{
		{Kind: RMW, Cache: smallCfg()},
		{Kind: WG, Cache: wide},
		{Kind: WGRB, Cache: smallCfg()},
		{Kind: Conventional, Cache: fifo},
		{Kind: WG, Cache: smallCfg()},
	}
	open := func(src trace.Stream) func() (trace.Stream, error) {
		return func() (trace.Stream, error) { return src, nil }
	}

	t.Run("clean", func(t *testing.T) {
		src := newWatchedSource(enc)
		got, err := RunLanes(context.Background(), lanes, Options{}, open(src), 0, batch)
		src.afterReturn(t)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range lanes {
			want, err := RunStreamContext(context.Background(), l.Kind, l.Cache, Options{}, trace.FromSlice(accs), 0, batch)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, got[i], want)
		}
	})

	t.Run("decode-error", func(t *testing.T) {
		cut := 4*batch + 300
		prefix := encodeTrace(t, accs[:cut])
		truncated := append(append([]byte(nil), prefix...), enc[len(prefix):len(prefix)+2]...)
		src := newWatchedSource(truncated)
		_, err := RunLanes(context.Background(), lanes, Options{}, open(src), 0, batch)
		src.afterReturn(t)
		var se *StreamError
		if !errors.As(err, &se) {
			t.Fatalf("err = %v, want *StreamError", err)
		}
		if se.Accesses != uint64(cut) {
			t.Fatalf("StreamError.Accesses = %d, want %d", se.Accesses, cut)
		}
	})

	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		src := newWatchedSource(enc)
		src.onRead = func(served int64) {
			if served >= 3*batch {
				cancel()
			}
		}
		_, err := RunLanes(ctx, lanes, Options{}, open(src), 0, batch)
		src.afterReturn(t)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if served := src.served.Load(); served >= n {
			t.Fatalf("cancelled run decoded the whole trace (%d accesses)", served)
		}
	})
}
