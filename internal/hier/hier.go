// Package hier composes two internal/core cache instances into an L1→L2
// hierarchy. The L1 controller runs the demand trace exactly as a
// single-level simulation would; its externally visible behaviour — refills,
// dirty write-backs, and the WG family's premature Set-Buffer write-backs —
// is captured as a typed Event stream, and the functional part of that
// stream (refills and write-backs) is synthesized into demand accesses that
// drive a second core controller as the L2.
//
// The synthesis rule is fixed and deliberately simple:
//
//	Refill(base)          → L2 Read  {Addr: base, Size: 8}
//	Writeback(base, data) → L2 Write {Addr: base, Size: 8, Data: data[0:8]}
//	PrematureWB           → counted, no L2 access
//
// Premature write-backs are on-chip row transfers between the Set-Buffer and
// the data array; they never carry new architectural state past the L1
// boundary, so they must not perturb the L2's functional simulation. They
// are still part of the traffic the L1 scheme presents downstream — the
// paper's WG controller pays one row write-back per read-interrupted write
// group that RMW never issues — so Result.L2Visible counts them alongside
// the refill/write-back stream. That makes the L2-visible totals
// kind-DEPENDENT even though the functional refill/write-back stream is
// kind-independent (every controller leaves identical cache.Stats and memory
// images; see DESIGN.md §5): the per-kind delta isolates exactly the
// microarchitectural component.
//
// Determinism: the L1 access order is the trace order, listener events fire
// synchronously inside the L1 cache operations that cause them (victim
// write-back strictly before the fill that displaced it), and premature
// write-backs are attributed to their causing access by diffing the L1
// controller's live counter after each access. The only goroutine is the
// trace decoder running one batch ahead, and no maps are iterated for
// effect — a hierarchy run is bit-reproducible and byte-identical between
// daemon and in-process execution.
package hier

import (
	"context"
	"encoding/binary"
	"fmt"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/mem"
	"cache8t/internal/trace"
)

// EventKind classifies one externally visible L1 event.
type EventKind uint8

const (
	// EvRefill is a demand miss fetching a block into L1.
	EvRefill EventKind = iota
	// EvWriteback is a dirty block leaving L1 (eviction or flush).
	EvWriteback
	// EvPrematureWB is a Set-Buffer row forced back into the array early by
	// a read Tag-Buffer hit (WG family only). On-chip: no address, no L2
	// access, but counted in the L2-visible totals.
	EvPrematureWB
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvRefill:
		return "refill"
	case EvWriteback:
		return "writeback"
	case EvPrematureWB:
		return "premature-wb"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one element of the L1's externally visible stream.
type Event struct {
	Kind EventKind
	// Addr is the block base address (zero for EvPrematureWB).
	Addr uint64
	// Data is the first 8 bytes of the victim block for EvWriteback.
	Data uint64
}

// Config describes a two-level run.
type Config struct {
	// L1Kind and L1 configure the first-level controller and cache; Opts
	// applies to the L1 controller (BufferDepth, silent-elision ablation,
	// fill-traffic accounting).
	L1Kind core.Kind
	L1     cache.Config
	Opts   core.Options

	// L2Kind and L2 configure the second-level instance, driven only by the
	// synthesized refill/write-back stream. L2Opts applies to it.
	L2Kind core.Kind
	L2     cache.Config
	L2Opts core.Options

	// Observer, when non-nil, receives every Event in order. Used by tests
	// and tooling; nil adds no per-event work beyond the counters.
	Observer func(Event)
}

// Counts aggregates the typed event stream.
type Counts struct {
	Refills      uint64 `json:"refills"`
	Writebacks   uint64 `json:"writebacks"`
	PrematureWBs uint64 `json:"premature_wbs"`
}

// Total returns all events, functional and on-chip.
func (c Counts) Total() uint64 { return c.Refills + c.Writebacks + c.PrematureWBs }

// Result reports a two-level run: each level's full single-level Result plus
// the event-stream totals that connect them.
type Result struct {
	L1      core.Result
	L2      core.Result
	Traffic Counts
}

// L2Visible returns the traffic the L1 scheme presents downstream: the
// functional refill/write-back stream plus the scheme's premature
// write-backs. The functional part is identical for every L1 kind, so
// per-kind deltas of this quantity isolate the microarchitectural cost.
func (r Result) L2Visible() uint64 { return r.Traffic.Total() }

// L2VisiblePerRequest normalizes L2Visible by L1 demand requests.
func (r Result) L2VisiblePerRequest() float64 {
	if n := r.L1.Requests.Accesses(); n > 0 {
		return float64(r.L2Visible()) / float64(n)
	}
	return 0
}

// bridge is the cache.Listener that turns L1 block traffic into L2 demand
// accesses, in event order.
type bridge struct {
	l2      core.Controller
	counts  Counts
	observe func(Event)
}

// Fill handles an L1 refill: the miss fetches the block from the next
// level, which the L2 sees as a block-base read.
func (b *bridge) Fill(base uint64) {
	b.counts.Refills++
	if b.observe != nil {
		b.observe(Event{Kind: EvRefill, Addr: base})
	}
	b.l2.Access(trace.Access{Kind: trace.Read, Addr: base, Size: 8})
}

// Writeback handles a dirty block leaving L1, which the L2 sees as a
// block-base write carrying the victim's first word.
func (b *bridge) Writeback(base uint64, data []byte) {
	b.counts.Writebacks++
	word := binary.LittleEndian.Uint64(data[:8])
	if b.observe != nil {
		b.observe(Event{Kind: EvWriteback, Addr: base, Data: word})
	}
	b.l2.Access(trace.Access{Kind: trace.Write, Addr: base, Size: 8, Data: word})
}

// premature records one Set-Buffer premature write-back.
func (b *bridge) premature() {
	b.counts.PrematureWBs++
	if b.observe != nil {
		b.observe(Event{Kind: EvPrematureWB})
	}
}

// prematureCounter is the mid-run counter every core controller provides
// (via its embedded base); hier diffs it across accesses to place on-chip
// events at the access that caused them.
type prematureCounter interface {
	PrematureWBs() uint64
}

// Run drives up to max accesses of s (max <= 0 drains the stream) through a
// fresh two-level hierarchy. Hierarchy runs are serial by construction — the
// L1 listener mutates the L2 on every fill and eviction, so there is no
// set-partitioned execution to shard.
func Run(cfg Config, s trace.Stream, max, batchSize int) (Result, error) {
	return RunContext(context.Background(), cfg, s, max, batchSize)
}

// RunContext is Run with cancellation, polled once per batch like the
// single-level drivers. Like them it decodes one batch ahead through a
// single-subscriber trace.Broadcast, stopped on every return path so the
// source is never read after RunContext returns.
func RunContext(ctx context.Context, cfg Config, s trace.Stream, max, batchSize int) (Result, error) {
	if cfg.L1.BlockBytes < 8 || cfg.L2.BlockBytes < 8 {
		return Result{}, fmt.Errorf("hier: block size must be at least 8 bytes")
	}
	l1c, err := cache.New(cfg.L1, mem.New())
	if err != nil {
		return Result{}, fmt.Errorf("hier: L1: %w", err)
	}
	l1, err := core.New(cfg.L1Kind, l1c, cfg.Opts)
	if err != nil {
		return Result{}, fmt.Errorf("hier: L1: %w", err)
	}
	l2c, err := cache.New(cfg.L2, mem.New())
	if err != nil {
		return Result{}, fmt.Errorf("hier: L2: %w", err)
	}
	l2, err := core.New(cfg.L2Kind, l2c, cfg.L2Opts)
	if err != nil {
		return Result{}, fmt.Errorf("hier: L2: %w", err)
	}
	br := &bridge{l2: l2, observe: cfg.Observer}
	l1c.SetListener(br)

	pwb, _ := l1.(prematureCounter)
	if max > 0 {
		s = trace.NewLimit(s, uint64(max))
	}
	if batchSize <= 0 {
		batchSize = trace.DefaultBatchSize
	}
	if max > 0 && batchSize > max {
		batchSize = max
	}
	bc := trace.NewBroadcast(s, batchSize, 1, trace.ReadAheadSlabs)
	defer bc.Stop()
	sub := bc.Sub(0)
	var fed, prevPWB uint64
	for {
		if ctx.Err() != nil {
			return Result{}, ctx.Err()
		}
		batch, ok := sub.Next()
		if !ok {
			break
		}
		for i := range batch {
			l1.Access(batch[i])
			if pwb != nil {
				// Attribute any premature write-backs to this access. They
				// follow the access's cache events: the Set-Buffer row
				// retires into the array before the read's data is served,
				// but after any miss handling the read triggered.
				for cur := pwb.PrematureWBs(); prevPWB < cur; prevPWB++ {
					br.premature()
				}
			}
		}
		fed += uint64(len(batch))
	}
	if err := bc.Err(); err != nil {
		return Result{}, &core.StreamError{Accesses: fed, Err: err}
	}
	// Finalize L1 first: the WG family's Set-Buffer drain may dirty cache
	// lines but reaches no backing memory, so it emits no events. The L1
	// cache is deliberately NOT flushed — only traffic the run itself caused
	// counts, matching the single-level drivers, which never flush either.
	l1res := l1.Finalize()
	l2res := l2.Finalize()
	return Result{L1: l1res, L2: l2res, Traffic: br.counts}, nil
}
