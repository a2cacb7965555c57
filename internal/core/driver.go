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

// RunStreamContext drives up to max accesses of s (max <= 0 drains the
// stream) through a freshly built cache and controller of the given kind,
// then finalizes. The stream is pulled in reusable batches of batchSize
// (<= 0 means trace.DefaultBatchSize) and never materialized; ctx is polled
// once per batch, and a decode error is returned as a *StreamError rather
// than left on the stream. This is the one-call entry point the experiment
// harness, the tools and the examples use.
func RunStreamContext(ctx context.Context, kind Kind, cfg cache.Config, opts Options, s trace.Stream, max, batchSize int) (Result, error) {
	return RunStreamCheckpointedContext(ctx, kind, cfg, opts, s, max, batchSize, 0, nil)
}

// Lane is one (controller kind, cache shape) pair that a shared stream
// feeds: the unit RunLanes fans a stream out to.
type Lane struct {
	Kind  Kind
	Cache cache.Config
}

// sameShape returns one lane per kind, all over cfg.
func sameShape(kinds []Kind, cfg cache.Config) []Lane {
	lanes := make([]Lane, len(kinds))
	for i, k := range kinds {
		lanes[i] = Lane{Kind: k, Cache: cfg}
	}
	return lanes
}

// RunEachStream runs every kind over one shared decode of the stream, all
// over the same cache shape: RunLanes with one lane per kind.
func RunEachStream(ctx context.Context, kinds []Kind, cfg cache.Config, opts Options, open func() (trace.Stream, error), max, batchSize int) ([]Result, error) {
	return RunLanes(ctx, sameShape(kinds, cfg), opts, open, max, batchSize)
}

// RunLanes runs every lane over one shared decode of the stream: open is
// called once, a trace.Broadcast fans the batches out, and each lane's
// controller consumes them over its own cache on its own goroutine.
// Results, in lane order, are byte-identical to RunEachStreamSerial lane by
// lane because every controller sees the exact same access sequence — but a
// thirteen-lane matrix generates or decodes its trace once instead of
// thirteen times, and no lane ever holds the full trace. One lane (or none)
// runs serially.
func RunLanes(ctx context.Context, lanes []Lane, opts Options, open func() (trace.Stream, error), max, batchSize int) ([]Result, error) {
	if len(lanes) <= 1 {
		return runLanesSerial(ctx, lanes, opts, open, max, batchSize)
	}
	// Build every controller before opening the stream, so construction
	// errors surface without spinning up the decoder.
	drivers := make([]*Driver, len(lanes))
	for i, l := range lanes {
		c, err := cache.New(l.Cache, mem.New())
		if err != nil {
			return nil, err
		}
		ctrl, err := New(l.Kind, c, opts)
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
	bc := trace.NewBroadcast(s, batchSizeFor(max, batchSize), len(lanes), 0)
	errs := make([]error, len(lanes))
	var wg sync.WaitGroup
	for i := range lanes {
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
	out := make([]Result, len(lanes))
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
	return runLanesSerial(ctx, sameShape(kinds, cfg), opts, open, max, batchSize)
}

// runLanesSerial runs each lane over its own fresh open, one after another.
func runLanesSerial(ctx context.Context, lanes []Lane, opts Options, open func() (trace.Stream, error), max, batchSize int) ([]Result, error) {
	out := make([]Result, len(lanes))
	for i, l := range lanes {
		s, err := open()
		if err != nil {
			return nil, err
		}
		out[i], err = RunStreamContext(ctx, l.Kind, l.Cache, opts, s, max, batchSize)
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
