package hier

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cache8t/internal/core"
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

// afterReturn marks the run as returned, waits for the decoder goroutine to
// be gone, and checks that no read started afterwards.
func (w *watchedSource) afterReturn(t *testing.T) {
	t.Helper()
	w.returned.Store(true)
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "trace.(*Broadcast).pump") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("decoder goroutine still running after the run returned:\n%s", stacks)
		}
	}
	time.Sleep(10 * time.Millisecond)
	if n := w.late.Load(); n != 0 {
		t.Fatalf("source read %d times after the run returned", n)
	}
}

// TestPipelinedRunLifecycle drives hier.RunContext, which decodes one batch
// ahead, through a clean end, a decode error in the middle of a batch and a
// cancellation: the result or error must be exactly the unpipelined one,
// the decoder goroutine must be gone, and the source untouched after the
// run returns.
func TestPipelinedRunLifecycle(t *testing.T) {
	const n, batch = 40_000, 1024
	accs := hierStream(17, n, 1<<14)
	encode := func(accs []trace.Access) []byte {
		var buf bytes.Buffer
		if _, err := trace.WriteAll(&buf, trace.FromSlice(accs), 0); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	enc := encode(accs)
	cut := 4*batch + 300
	prefix := encode(accs[:cut])
	truncated := append(append([]byte(nil), prefix...), enc[len(prefix):len(prefix)+2]...)
	cfg := testConfig()
	cfg.L1Kind = core.WG

	t.Run("clean", func(t *testing.T) {
		want, err := Run(cfg, trace.FromSlice(accs), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		src := &watchedSource{r: trace.NewReader(bytes.NewReader(enc))}
		got, err := RunContext(context.Background(), cfg, src, 0, batch)
		src.afterReturn(t)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pipelined run differs from the slice run:\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("decode-error", func(t *testing.T) {
		src := &watchedSource{r: trace.NewReader(bytes.NewReader(truncated))}
		_, err := RunContext(context.Background(), cfg, src, 0, batch)
		src.afterReturn(t)
		var se *core.StreamError
		if !errors.As(err, &se) {
			t.Fatalf("err = %v, want *core.StreamError", err)
		}
		if se.Accesses != uint64(cut) {
			t.Fatalf("StreamError.Accesses = %d, want %d", se.Accesses, cut)
		}
	})

	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		src := &watchedSource{r: trace.NewReader(bytes.NewReader(enc))}
		src.onRead = func(served int64) {
			if served >= 3*batch {
				cancel()
			}
		}
		_, err := RunContext(ctx, cfg, src, 0, batch)
		src.afterReturn(t)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if served := src.served.Load(); served >= n {
			t.Fatalf("cancelled run decoded the whole trace (%d accesses)", served)
		}
	})
}
