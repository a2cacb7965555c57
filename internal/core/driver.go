package core

import (
	"context"
	"fmt"
	"sync"

	"cache8t/internal/cache"
	"cache8t/internal/mem"
	"cache8t/internal/trace"
)

// Driver feeds batches of accesses into one Controller. It is the hot inner
// loop of the streaming pipeline: the per-access Stream interface dispatch,
// the context poll, and the access budget all live at batch granularity, so
// the controller's Access method is the only per-access work left.
//
// A Driver never holds more than one batch of the trace; memory stays
// constant no matter how long the stream is.
type Driver struct {
	ctrl Controller
	fed  uint64
}

// NewDriver wraps a controller for batched feeding.
func NewDriver(ctrl Controller) *Driver { return &Driver{ctrl: ctrl} }

// Feed runs every access of batch through the controller, in order.
func (d *Driver) Feed(batch []trace.Access) {
	for i := range batch {
		d.ctrl.Access(batch[i])
	}
	d.fed += uint64(len(batch))
}

// Accesses returns how many accesses have been fed.
func (d *Driver) Accesses() uint64 { return d.fed }

// Finish drains the controller's buffers and returns the run's Result. The
// driver (and its controller) must not be used afterwards.
func (d *Driver) Finish() Result { return d.ctrl.Finalize() }

// RunStream drives up to max accesses of s (max <= 0 drains the stream)
// through a freshly built cache and controller, pulling the stream in
// reusable batches of batchSize (<= 0 means trace.DefaultBatchSize). It is
// the streaming twin of Run: results are identical access-for-access, but
// the trace is never materialized and decode errors are returned rather than
// left on the stream.
func RunStream(kind Kind, cfg cache.Config, opts Options, s trace.Stream, max, batchSize int) (Result, error) {
	return RunStreamContext(context.Background(), kind, cfg, opts, s, max, batchSize)
}

// RunStreamContext is RunStream with cancellation, polled once per batch.
func RunStreamContext(ctx context.Context, kind Kind, cfg cache.Config, opts Options, s trace.Stream, max, batchSize int) (Result, error) {
	return RunStreamCheckpointedContext(ctx, kind, cfg, opts, s, max, batchSize, 0, nil)
}

// RunEachStream runs every kind over one shared decode of the stream: open
// is called once, a trace.Broadcast fans the batches out, and each kind's
// controller consumes them on its own goroutine. Results are byte-identical
// to RunEachStreamSerial (and so to RunAll over the materialized accesses)
// because every controller sees the exact same access sequence — but a
// seven-kind comparison decodes its gzip trace once instead of seven times,
// and no kind ever holds the full trace.
func RunEachStream(ctx context.Context, kinds []Kind, cfg cache.Config, opts Options, open func() (trace.Stream, error), max, batchSize int) ([]Result, error) {
	if len(kinds) <= 1 {
		return RunEachStreamSerial(ctx, kinds, cfg, opts, open, max, batchSize)
	}
	// Build every controller before opening the stream, so construction
	// errors surface without spinning up the decoder.
	drivers := make([]*Driver, len(kinds))
	for i, k := range kinds {
		c, err := cache.New(cfg, mem.New())
		if err != nil {
			return nil, err
		}
		ctrl, err := New(k, c, opts)
		if err != nil {
			return nil, err
		}
		drivers[i] = NewDriver(ctrl)
	}
	s, err := open()
	if err != nil {
		return nil, err
	}
	if max > 0 {
		s = trace.NewLimit(s, uint64(max))
	}
	bc := trace.NewBroadcast(s, batchSizeFor(max, batchSize), len(kinds), 0)
	errs := make([]error, len(kinds))
	var wg sync.WaitGroup
	for i := range kinds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub := bc.Sub(i)
			for {
				if err := ctx.Err(); err != nil {
					sub.Stop()
					errs[i] = err
					return
				}
				batch, ok := sub.Next()
				if !ok {
					return
				}
				drivers[i].Feed(batch)
			}
		}(i)
	}
	wg.Wait()
	bc.Stop()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := bc.Err(); err != nil {
		return nil, &StreamError{Accesses: drivers[0].Accesses(), Err: err}
	}
	out := make([]Result, len(kinds))
	for i, d := range drivers {
		out[i] = d.Finish()
	}
	return out, nil
}

// RunEachStreamSerial is the one-kind-at-a-time fallback behind
// RunEachStream: each kind gets its own fresh stream from open and runs to
// completion before the next starts. Callers guarantee open yields identical
// streams (a deterministic generator re-seeded per call, or a replayed
// slice). It trades the broadcast's single decode for minimal concurrency —
// and is the reference the broadcast path is tested byte-identical against.
func RunEachStreamSerial(ctx context.Context, kinds []Kind, cfg cache.Config, opts Options, open func() (trace.Stream, error), max, batchSize int) ([]Result, error) {
	out := make([]Result, len(kinds))
	for i, k := range kinds {
		s, err := open()
		if err != nil {
			return nil, err
		}
		out[i], err = RunStreamContext(ctx, k, cfg, opts, s, max, batchSize)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// batchSizeFor resolves a requested batch size against an access budget:
// size <= 0 means trace.DefaultBatchSize, and a bounded run never buffers
// more than its budget.
func batchSizeFor(max, size int) int {
	if size <= 0 {
		size = trace.DefaultBatchSize
	}
	if max > 0 && size > max {
		size = max
	}
	return size
}

// StreamError reports a trace decode failure mid-run, with how many accesses
// simulated cleanly before it.
type StreamError struct {
	Accesses uint64
	Err      error
}

// Error implements error.
func (e *StreamError) Error() string {
	return fmt.Sprintf("core: trace decode failed after %d accesses: %v", e.Accesses, e.Err)
}

// Unwrap exposes the decode error.
func (e *StreamError) Unwrap() error { return e.Err }
