package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"cache8t/internal/cache"
	"cache8t/internal/mem"
	"cache8t/internal/sram"
	"cache8t/internal/trace"
)

// Controller checkpointing: a Driver's complete simulation state — cache
// lines, replacement and Set-Buffer state, counters, array event ledgers,
// RNG state, and the dirty memory image — serialized at a batch boundary
// into one versioned blob, and restored into a fresh Driver that replays
// the remaining trace suffix. The contract is the repository's usual one:
// resume ≡ straight-through, byte-identical down to the flushed memory
// image (pinned by TestCheckpointResumeIdentity for every controller kind).
//
// The blob is self-describing: it embeds the cache.Config and Options it
// was captured under, so ResumeDriver needs nothing but the bytes. The
// format is versioned by ckptVersion; any layout change must bump it, and
// a decoder seeing an unknown version fails with ErrBadCheckpoint rather
// than guessing.

// ckptMagic guards against feeding arbitrary blobs to the decoder.
const ckptMagic = "c8tckpt\x00"

// ckptVersion is the snapshot layout version. Bump on any change.
const ckptVersion uint16 = 1

// Controller-specific state section tags.
const (
	ckptExtraNone     uint8 = 0 // direct and RMW controllers are stateless beyond base
	ckptExtraCoalesce uint8 = 1
	ckptExtraWG       uint8 = 2
	ckptExtraTS       uint8 = 3
)

// ErrBadCheckpoint wraps every decode failure: wrong magic, unknown
// version, truncated or corrupt payload, or a blob inconsistent with the
// stream it is resumed against. Callers fall back to a from-zero run.
var ErrBadCheckpoint = errors.New("core: bad checkpoint blob")

// CheckpointSink receives each serialized snapshot during a checkpointed
// run, together with the number of accesses simulated so far. A sink error
// aborts the run.
type CheckpointSink func(blob []byte, accesses uint64) error

// ckptWriter is a minimal append-only little-endian encoder.
type ckptWriter struct {
	buf []byte
}

func (w *ckptWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *ckptWriter) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *ckptWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *ckptWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *ckptWriter) i64(v int64)  { w.u64(uint64(v)) }
func (w *ckptWriter) raw(b []byte) { w.buf = append(w.buf, b...) }

func (w *ckptWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// ckptReader is the matching decoder. The first failure latches err and
// every later read returns zero values, so decode code can read straight
// through and check err once per section.
type ckptReader struct {
	buf []byte
	off int
	err error
}

func (r *ckptReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrBadCheckpoint, fmt.Sprintf(format, args...))
	}
}

func (r *ckptReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail("truncated at offset %d (want %d more bytes)", r.off, n)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *ckptReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *ckptReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *ckptReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *ckptReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *ckptReader) i64() int64 { return int64(r.u64()) }

func (r *ckptReader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("bool byte at offset %d is neither 0 nor 1", r.off-1)
		return false
	}
}

// baseHolder is how the codec reaches the shared controller state; every
// controller in this package gets it by embedding base.
type baseHolder interface {
	baseState() *base
}

func (b *base) baseState() *base { return b }

// Snapshot serializes the driver's complete state at the current (batch)
// boundary. cfg must be the cache.Config the run was built with: the blob
// embeds it so the resuming side can rebuild an identical cache, and the
// parts of it that are observable (geometry, allocation policy) are
// cross-checked here against the live cache.
func (d *Driver) Snapshot(cfg cache.Config) ([]byte, error) {
	bh, ok := d.ctrl.(baseHolder)
	if !ok {
		return nil, fmt.Errorf("core: controller %T cannot be checkpointed", d.ctrl)
	}
	b := bh.baseState()
	geom, err := cache.NewGeometry(cfg.SizeBytes, cfg.Ways, cfg.BlockBytes)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot config: %w", err)
	}
	if geom != b.geom {
		return nil, fmt.Errorf("core: snapshot config geometry %+v does not match the running cache %+v", geom, b.geom)
	}
	if cfg.NoWriteAllocate != b.cache.NoWriteAllocate() {
		return nil, fmt.Errorf("core: snapshot config allocation policy does not match the running cache")
	}

	w := &ckptWriter{buf: make([]byte, 0, 1<<16)}
	w.raw([]byte(ckptMagic))
	w.u16(ckptVersion)
	w.u8(uint8(b.kind))

	// Cache configuration (rebuild inputs for the resuming side).
	w.i64(int64(cfg.SizeBytes))
	w.i64(int64(cfg.Ways))
	w.i64(int64(cfg.BlockBytes))
	w.u8(uint8(cfg.Policy))
	w.u64(cfg.Seed)
	w.bool(cfg.NoWriteAllocate)

	// Controller options.
	w.i64(int64(b.opts.BufferDepth))
	w.bool(b.opts.DisableSilentElision)
	w.bool(b.opts.CountFillTraffic)

	// Progress and stream-level statistics.
	w.u64(d.fed)
	w.u64(b.requests.Reads)
	w.u64(b.requests.Writes)
	w.u64(b.requests.Instructions)

	// Controller counters.
	c := &b.counters
	for _, v := range []uint64{
		c.DemandReads, c.DemandWrites, c.TagProbes, c.TagHits,
		c.GroupedWrites, c.SilentWrites, c.SilentElidedWBs, c.PrematureWBs,
		c.BypassedReads, c.BufferFills, c.BufferWritebacks,
	} {
		w.u64(v)
	}
	for _, v := range c.GroupSizes {
		w.u64(v)
	}

	// SRAM array event ledger.
	counts := b.array.Counts()
	w.u32(uint32(len(counts)))
	for _, v := range counts {
		w.u64(v)
	}

	// Functional cache state: stats, replacement RNG, lines, policies.
	st := b.cache.Stats()
	for _, v := range []uint64{
		st.ReadHits, st.ReadMisses, st.WriteHits, st.WriteMisses,
		st.Fills, st.Evictions, st.Writebacks,
	} {
		w.u64(v)
	}
	for _, v := range b.cache.RNGState() {
		w.u64(v)
	}
	var set []cache.Line
	for s := 0; s < geom.Sets; s++ {
		set = b.cache.SnapshotSetInto(s, set)
		for i := range set {
			writeLine(w, &set[i])
		}
	}
	for s := 0; s < geom.Sets; s++ {
		ps := b.cache.PolicyState(s)
		w.u32(uint32(len(ps)))
		for _, word := range ps {
			w.u32(word)
		}
	}

	// Backed memory image, in deterministic (ascending base) order.
	m := b.cache.Backing()
	bases := m.Bases()
	w.u64(uint64(len(bases)))
	chunk := make([]byte, mem.ChunkSize)
	for _, base := range bases {
		w.u64(base)
		m.Read(base, chunk)
		w.raw(chunk)
	}

	// Controller-specific state.
	switch ctrl := d.ctrl.(type) {
	case *directController, *rmwController:
		w.u8(ckptExtraNone)
	case *tsController:
		w.u8(ckptExtraTS)
		w.u64(ctrl.specReads)
	case *coalesceController:
		w.u8(ckptExtraCoalesce)
		w.bool(ctrl.pendingValid)
		w.u64(ctrl.pendingBase)
		w.bool(ctrl.pendingDirty)
	case *wgController:
		w.u8(ckptExtraWG)
		w.u32(uint32(len(ctrl.buffers)))
		for i := range ctrl.buffers {
			sb := &ctrl.buffers[i]
			w.bool(sb.valid)
			if !sb.valid {
				continue
			}
			w.i64(int64(sb.set))
			w.bool(sb.dirty)
			w.u64(sb.writes)
			for j := range sb.lines {
				writeLine(w, &sb.lines[j])
			}
		}
	default:
		return nil, fmt.Errorf("core: controller %T cannot be checkpointed", d.ctrl)
	}
	return w.buf, nil
}

func writeLine(w *ckptWriter, l *cache.Line) {
	w.u64(l.Tag)
	w.bool(l.Valid)
	w.bool(l.Dirty)
	w.raw(l.Data)
}

func readLineInto(r *ckptReader, l *cache.Line, blockBytes int) {
	l.Tag = r.u64()
	l.Valid = r.bool()
	l.Dirty = r.bool()
	copy(l.Data, r.take(blockBytes))
}

// ResumeDriver reconstructs a Driver — controller, cache, replacement
// state, and memory image included — from a Snapshot blob. It returns the
// cache.Config the snapshot was captured under and how many accesses had
// been fed at capture time; the caller must skip exactly that many
// accesses of the identical stream before feeding the rest. Any
// malformation yields an error wrapping ErrBadCheckpoint.
func ResumeDriver(blob []byte) (*Driver, cache.Config, uint64, error) {
	fail := func(err error) (*Driver, cache.Config, uint64, error) {
		return nil, cache.Config{}, 0, err
	}
	r := &ckptReader{buf: blob}
	if string(r.take(len(ckptMagic))) != ckptMagic {
		r.fail("magic mismatch")
		return fail(r.err)
	}
	if v := r.u16(); r.err == nil && v != ckptVersion {
		return fail(fmt.Errorf("%w: snapshot version %d, this build reads %d", ErrBadCheckpoint, v, ckptVersion))
	}
	kind := Kind(r.u8())

	cfg := cache.Config{
		SizeBytes:  int(r.i64()),
		Ways:       int(r.i64()),
		BlockBytes: int(r.i64()),
		Policy:     cache.PolicyKind(r.u8()),
		Seed:       r.u64(),
	}
	cfg.NoWriteAllocate = r.bool()

	var opts Options
	opts.BufferDepth = int(r.i64())
	opts.DisableSilentElision = r.bool()
	opts.CountFillTraffic = r.bool()

	fed := r.u64()
	var requests trace.Stats
	requests.Reads = r.u64()
	requests.Writes = r.u64()
	requests.Instructions = r.u64()

	var counters Counters
	for _, p := range []*uint64{
		&counters.DemandReads, &counters.DemandWrites, &counters.TagProbes, &counters.TagHits,
		&counters.GroupedWrites, &counters.SilentWrites, &counters.SilentElidedWBs, &counters.PrematureWBs,
		&counters.BypassedReads, &counters.BufferFills, &counters.BufferWritebacks,
	} {
		*p = r.u64()
	}
	for i := range counters.GroupSizes {
		counters.GroupSizes[i] = r.u64()
	}

	var arrayCounts [sram.NumEvents]uint64
	if n := r.u32(); r.err == nil && int(n) != len(arrayCounts) {
		return fail(fmt.Errorf("%w: snapshot has %d array events, this build has %d", ErrBadCheckpoint, n, len(arrayCounts)))
	}
	for i := range arrayCounts {
		arrayCounts[i] = r.u64()
	}

	var stats cache.Stats
	for _, p := range []*uint64{
		&stats.ReadHits, &stats.ReadMisses, &stats.WriteHits, &stats.WriteMisses,
		&stats.Fills, &stats.Evictions, &stats.Writebacks,
	} {
		*p = r.u64()
	}
	var rngState [4]uint64
	for i := range rngState {
		rngState[i] = r.u64()
	}
	if r.err != nil {
		return fail(r.err)
	}

	// Rebuild the substrate; cache.New validates the embedded geometry.
	c, err := cache.New(cfg, mem.New())
	if err != nil {
		return fail(fmt.Errorf("%w: %v", ErrBadCheckpoint, err))
	}
	geom := c.Geometry()
	c.RestoreStats(stats)
	c.RestoreRNGState(rngState)
	lines := c.SnapshotSet(0)
	for s := 0; s < geom.Sets; s++ {
		for w := range lines {
			readLineInto(r, &lines[w], geom.BlockBytes)
		}
		c.RestoreSet(s, lines)
	}
	for s := 0; s < geom.Sets; s++ {
		n := r.u32()
		if r.err == nil && int(n) > geom.Ways {
			return fail(fmt.Errorf("%w: policy state for set %d has %d words for %d ways", ErrBadCheckpoint, s, n, geom.Ways))
		}
		if r.err != nil {
			return fail(r.err)
		}
		ps := make([]uint32, n)
		for i := range ps {
			ps[i] = r.u32()
		}
		if r.err != nil {
			return fail(r.err)
		}
		if err := c.RestorePolicyState(s, ps); err != nil {
			return fail(fmt.Errorf("%w: %v", ErrBadCheckpoint, err))
		}
	}

	m := c.Backing()
	nChunks := r.u64()
	for i := uint64(0); i < nChunks; i++ {
		base := r.u64()
		chunk := r.take(mem.ChunkSize)
		if r.err != nil {
			return fail(r.err)
		}
		m.Write(base, chunk)
	}

	ctrl, err := New(kind, c, opts)
	if err != nil {
		return fail(fmt.Errorf("%w: %v", ErrBadCheckpoint, err))
	}
	bh := ctrl.(baseHolder).baseState()
	bh.requests = requests
	bh.counters = counters
	bh.array.RestoreCounts(arrayCounts)

	extra := r.u8()
	switch ctrl := ctrl.(type) {
	case *directController, *rmwController:
		if r.err == nil && extra != ckptExtraNone {
			return fail(fmt.Errorf("%w: unexpected state section %d for %v", ErrBadCheckpoint, extra, kind))
		}
	case *tsController:
		if r.err == nil && extra != ckptExtraTS {
			return fail(fmt.Errorf("%w: unexpected state section %d for %v", ErrBadCheckpoint, extra, kind))
		}
		ctrl.specReads = r.u64()
	case *coalesceController:
		if r.err == nil && extra != ckptExtraCoalesce {
			return fail(fmt.Errorf("%w: unexpected state section %d for %v", ErrBadCheckpoint, extra, kind))
		}
		ctrl.pendingValid = r.bool()
		ctrl.pendingBase = r.u64()
		ctrl.pendingDirty = r.bool()
	case *wgController:
		if r.err == nil && extra != ckptExtraWG {
			return fail(fmt.Errorf("%w: unexpected state section %d for %v", ErrBadCheckpoint, extra, kind))
		}
		if n := r.u32(); r.err == nil && int(n) != len(ctrl.buffers) {
			return fail(fmt.Errorf("%w: snapshot has %d Set-Buffer entries, options build %d", ErrBadCheckpoint, n, len(ctrl.buffers)))
		}
		for i := range ctrl.buffers {
			sb := &ctrl.buffers[i]
			sb.valid = r.bool()
			if r.err != nil || !sb.valid {
				continue
			}
			sb.set = int(r.i64())
			sb.dirty = r.bool()
			sb.writes = r.u64()
			if r.err == nil && (sb.set < 0 || sb.set >= geom.Sets) {
				return fail(fmt.Errorf("%w: Set-Buffer entry %d holds out-of-range set %d", ErrBadCheckpoint, i, sb.set))
			}
			sb.lines = make([]cache.Line, geom.Ways)
			data := make([]byte, geom.Ways*geom.BlockBytes)
			for w := range sb.lines {
				sb.lines[w].Data, data = data[:geom.BlockBytes], data[geom.BlockBytes:]
				readLineInto(r, &sb.lines[w], geom.BlockBytes)
			}
		}
	}
	if r.err != nil {
		return fail(r.err)
	}
	if r.off != len(r.buf) {
		return fail(fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, len(r.buf)-r.off))
	}

	d := NewDriver(ctrl)
	d.fed = fed
	return d, cfg, fed, nil
}

// RunStreamCheckpointedContext is RunStreamContext plus periodic snapshots:
// after every `every`-th fed batch the driver's state is serialized and
// handed to sink. every <= 0 or a nil sink disables checkpointing, making
// this exactly RunStreamContext.
func RunStreamCheckpointedContext(ctx context.Context, kind Kind, cfg cache.Config, opts Options, s trace.Stream, max, batchSize, every int, sink CheckpointSink) (Result, error) {
	c, err := cache.New(cfg, mem.New())
	if err != nil {
		return Result{}, err
	}
	ctrl, err := New(kind, c, opts)
	if err != nil {
		return Result{}, err
	}
	return runCheckpointed(ctx, NewDriver(ctrl), cfg, s, max, batchSize, 0, every, sink)
}

// ResumeStreamContext restores a snapshot and replays the remaining suffix
// of s, which must be the identical stream (same workload, same seed, same
// bound) the snapshot's run was fed. Checkpointing continues via every and
// sink, like RunStreamCheckpointedContext. The returned Result is
// byte-identical to what the uninterrupted run would have produced.
func ResumeStreamContext(ctx context.Context, blob []byte, s trace.Stream, max, batchSize, every int, sink CheckpointSink) (Result, error) {
	d, cfg, fed, err := ResumeDriver(blob)
	if err != nil {
		return Result{}, err
	}
	if max > 0 && fed > uint64(max) {
		return Result{}, fmt.Errorf("%w: snapshot is %d accesses in, past the %d-access budget", ErrBadCheckpoint, fed, max)
	}
	return runCheckpointed(ctx, d, cfg, s, max, batchSize, fed, every, sink)
}

// runCheckpointed is the one drive loop behind every unsharded core run:
// skip the already-simulated prefix (resume), feed the rest batch by batch,
// snapshot every `every` fed batches. A single-subscriber Broadcast decodes
// one batch ahead, so decode overlaps simulation; its deferred Stop means
// the source is never read after the loop returns, on any path.
func runCheckpointed(ctx context.Context, d *Driver, cfg cache.Config, s trace.Stream, max, batchSize int, skip uint64, every int, sink CheckpointSink) (Result, error) {
	if max > 0 {
		s = trace.NewLimit(s, uint64(max))
	}
	bc := trace.NewBroadcast(s, batchSizeFor(max, batchSize), 1, trace.ReadAheadSlabs)
	defer bc.Stop()
	sub := bc.Sub(0)
	fedBatches := 0
	for {
		if ctx.Err() != nil {
			return Result{}, ctx.Err()
		}
		batch, ok := sub.Next()
		if !ok {
			break
		}
		if skip > 0 {
			if uint64(len(batch)) <= skip {
				skip -= uint64(len(batch))
				continue
			}
			batch = batch[skip:]
			skip = 0
		}
		d.Feed(batch)
		fedBatches++
		if every > 0 && sink != nil && fedBatches%every == 0 {
			blob, err := d.Snapshot(cfg)
			if err != nil {
				return Result{}, err
			}
			if err := sink(blob, d.Accesses()); err != nil {
				return Result{}, fmt.Errorf("core: checkpoint sink: %w", err)
			}
		}
	}
	if err := bc.Err(); err != nil {
		return Result{}, &StreamError{Accesses: d.Accesses(), Err: err}
	}
	if skip > 0 {
		return Result{}, fmt.Errorf("%w: stream ended %d accesses short of the snapshot position", ErrBadCheckpoint, skip)
	}
	return d.Finish(), nil
}
