package core

import (
	"context"
	"errors"
	"fmt"

	"cache8t/internal/cache"
	"cache8t/internal/mem"
	"cache8t/internal/trace"
)

// Run drives up to max accesses of s (max <= 0 drains the stream) through a
// freshly built cache and controller of the given kind, then finalizes.
// This is the one-call entry point the experiment harness and examples use.
func Run(kind Kind, cfg cache.Config, opts Options, s trace.Stream, max int) (Result, error) {
	return RunContext(context.Background(), kind, cfg, opts, s, max)
}

// RunContext is Run with cancellation: the simulation polls ctx once per
// batch (trace.DefaultBatchSize accesses) and abandons the run with ctx's
// error once it is cancelled or past its deadline. This is what gives engine
// jobs prompt, mid-simulation cancellation instead of job-boundary
// granularity.
//
// RunContext runs on the same drive loop as RunStreamContext; the only
// difference is error handling — for compatibility with callers that check
// the reader's Err themselves, a stream that stops early is treated as
// exhausted rather than failed. New code should prefer RunStreamContext.
func RunContext(ctx context.Context, kind Kind, cfg cache.Config, opts Options, s trace.Stream, max int) (Result, error) {
	c, err := cache.New(cfg, mem.New())
	if err != nil {
		return Result{}, err
	}
	ctrl, err := New(kind, c, opts)
	if err != nil {
		return Result{}, err
	}
	d := NewDriver(ctrl)
	res, err := runCheckpointed(ctx, d, cfg, s, max, 0, 0, 0, nil)
	var se *StreamError
	if errors.As(err, &se) {
		return d.Finish(), nil
	}
	return res, err
}

// RunAll runs the same access slice through several controller kinds, each
// over its own fresh cache, and returns results in kind order. Slices (not
// streams) keep the inputs bit-identical across controllers. It is the
// serial (workers=1) case of RunAllContext, so there is exactly one
// execution path for single- and multi-controller runs.
func RunAll(kinds []Kind, cfg cache.Config, opts Options, accesses []trace.Access) ([]Result, error) {
	return RunAllContext(context.Background(), kinds, cfg, opts, accesses, 1)
}

// VerifyEquivalence replays accesses through two controller kinds and checks
// the architectural contract: every read and write returns the same value
// under both, and the post-flush memory images are identical. It returns a
// non-nil diagnostic on the first divergence. This is the correctness
// invariant of DESIGN.md §5, used by property tests.
func VerifyEquivalence(a, b Kind, cfg cache.Config, opts Options, accesses []trace.Access) error {
	ca, err := cache.New(cfg, mem.New())
	if err != nil {
		return err
	}
	cb, err := cache.New(cfg, mem.New())
	if err != nil {
		return err
	}
	ctrlA, err := New(a, ca, opts)
	if err != nil {
		return err
	}
	ctrlB, err := New(b, cb, opts)
	if err != nil {
		return err
	}
	for i, acc := range accesses {
		va := ctrlA.Access(acc)
		vb := ctrlB.Access(acc)
		if va != vb {
			return &DivergenceError{Step: i, Access: acc, A: a, B: b, ValueA: va, ValueB: vb}
		}
	}
	ctrlA.Finalize()
	ctrlB.Finalize()
	ca.FlushAll()
	cb.FlushAll()
	if !ca.Backing().Equal(cb.Backing()) {
		return &DivergenceError{Step: len(accesses), A: a, B: b, MemoryImage: true}
	}
	return nil
}

// DivergenceError reports where two controllers stopped agreeing.
type DivergenceError struct {
	Step        int
	Access      trace.Access
	A, B        Kind
	ValueA      uint64
	ValueB      uint64
	MemoryImage bool
}

// Error implements error.
func (e *DivergenceError) Error() string {
	if e.MemoryImage {
		return fmt.Sprintf("core: %v and %v left different memory images", e.A, e.B)
	}
	return fmt.Sprintf("core: %v and %v diverged at step %d on %v: %#x vs %#x",
		e.A, e.B, e.Step, e.Access, e.ValueA, e.ValueB)
}
