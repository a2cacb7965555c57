package cache

// A frozen copy of the cache and replacement policies as they were before
// the flat layout (set-major []Line, tag probe index, flat policy state).
// TestFlatCacheMatchesReference drives both through the same random
// operations and requires identical results, so the flat layout is a pure
// change of representation.

import (
	"encoding/binary"
	"fmt"

	"cache8t/internal/mem"
	"cache8t/internal/rng"
)

// refCache is the cache as it stood before the flat layout: one []Line
// per set and one replacement-policy object per set. It is kept only as the
// differential oracle for the flat Cache.
type refCache struct {
	geom     Geometry
	sets     [][]Line
	policies []refPolicy
	// rand is the RNG shared by every set's Random replacement policy
	// (unused by the deterministic policies). Retained so checkpointing can
	// capture and restore its state.
	rand     *rng.Xoshiro256
	backing  *mem.Memory
	stats    Stats
	noAlloc  bool
	listener Listener
}

// SetListener attaches (or, with nil, detaches) the block-traffic observer.
// At most one listener is supported; internal/hier uses it to drive an L2.
func (c *refCache) SetListener(l Listener) { c.listener = l }

// newRefCache builds a reference cache over backing memory.
func newRefCache(cfg Config, backing *mem.Memory) (*refCache, error) {
	geom, err := NewGeometry(cfg.SizeBytes, cfg.Ways, cfg.BlockBytes)
	if err != nil {
		return nil, err
	}
	if backing == nil {
		return nil, fmt.Errorf("cache: nil backing memory")
	}
	r := rng.New(cfg.Seed)
	c := &refCache{
		geom:     geom,
		sets:     make([][]Line, geom.Sets),
		policies: make([]refPolicy, geom.Sets),
		rand:     r,
		backing:  backing,
		noAlloc:  cfg.NoWriteAllocate,
	}
	data := make([]byte, geom.Sets*geom.Ways*geom.BlockBytes)
	for s := range c.sets {
		ways := make([]Line, geom.Ways)
		for w := range ways {
			ways[w].Data, data = data[:geom.BlockBytes], data[geom.BlockBytes:]
		}
		c.sets[s] = ways
		c.policies[s] = newRefPolicy(cfg.Policy, geom.Ways, r)
	}
	return c, nil
}

// Geometry returns the cache shape.
func (c *refCache) Geometry() Geometry { return c.geom }

// Stats returns a copy of the functional event counters.
func (c *refCache) Stats() Stats { return c.stats }

// RestoreStats replaces the functional event counters, for checkpoint
// restore.
func (c *refCache) RestoreStats(s Stats) { c.stats = s }

// PolicyState returns set s's replacement state as an opaque word slice
// (empty for stateless policies). Paired with RestorePolicyState.
func (c *refCache) PolicyState(s int) []uint32 { return c.policies[s].state() }

// RestorePolicyState replaces set s's replacement state with one captured by
// PolicyState on a cache of the same configuration.
func (c *refCache) RestorePolicyState(s int, st []uint32) error {
	return c.policies[s].restore(st)
}

// RNGState returns the state of the RNG shared by the Random replacement
// policy. Paired with RestoreRNGState.
func (c *refCache) RNGState() [4]uint64 { return c.rand.State() }

// RestoreRNGState replaces the shared replacement RNG's state.
func (c *refCache) RestoreRNGState(s [4]uint64) { c.rand.Restore(s) }

// Backing returns the cache's backing memory.
func (c *refCache) Backing() *mem.Memory { return c.backing }

// NoWriteAllocate reports whether write misses bypass the cache.
func (c *refCache) NoWriteAllocate() bool { return c.noAlloc }

// WriteAround performs a write-around for a write miss under the
// no-write-allocate policy: the data goes straight to memory and the miss
// is accounted, with no fill and no replacement update. The caller must
// have established via Probe that addr's block is not resident; bytes that
// straddle into a *resident* neighbour block are written into that line so
// the freshest copy stays unique.
func (c *refCache) WriteAround(addr uint64, size uint8, data uint64) {
	c.stats.WriteMisses++
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], data)
	for i := 0; i < int(size); i++ {
		b := addr + uint64(i)
		if set, way, hit := c.Probe(b); hit {
			l := &c.sets[set][way]
			off := c.geom.BlockOffset(b)
			if l.Data[off] != buf[i] {
				l.Data[off] = buf[i]
				l.Dirty = true
			}
			continue
		}
		c.backing.StoreByte(b, buf[i])
	}
}

// Probe looks up addr without side effects. It returns the set index, the
// way holding the block (-1 on miss), and whether it hit.
func (c *refCache) Probe(addr uint64) (set, way int, hit bool) {
	set = c.geom.SetIndex(addr)
	tag := c.geom.Tag(addr)
	for w := range c.sets[set] {
		if l := &c.sets[set][w]; l.Valid && l.Tag == tag {
			return set, w, true
		}
	}
	return set, -1, false
}

// Ensure makes addr's block resident: on a miss it evicts a victim (writing
// back dirty data) and fills from backing memory. It updates replacement
// state and hit/miss counters according to isWrite. It returns the set, the
// way now holding the block, and whether the request hit.
func (c *refCache) Ensure(addr uint64, isWrite bool) (set, way int, hit bool) {
	set, way, hit = c.Probe(addr)
	switch {
	case hit && isWrite:
		c.stats.WriteHits++
	case hit:
		c.stats.ReadHits++
	case isWrite:
		c.stats.WriteMisses++
	default:
		c.stats.ReadMisses++
	}
	if hit {
		c.policies[set].Touch(way)
		return set, way, true
	}
	way = c.fill(set, c.geom.Tag(addr), c.geom.BlockBase(addr))
	return set, way, false
}

// fill victimizes a way in set and loads the block at base into it.
func (c *refCache) fill(set int, tag, base uint64) int {
	way := -1
	for w := range c.sets[set] {
		if !c.sets[set][w].Valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = c.policies[set].Victim()
		c.evict(set, way)
	}
	l := &c.sets[set][way]
	c.backing.Read(base, l.Data)
	l.Tag = tag
	l.Valid = true
	l.Dirty = false
	c.stats.Fills++
	if c.listener != nil {
		c.listener.Fill(base)
	}
	c.policies[set].Insert(way)
	return way
}

// evict writes back way's line if dirty and invalidates it.
func (c *refCache) evict(set, way int) {
	l := &c.sets[set][way]
	if !l.Valid {
		return
	}
	if l.Dirty {
		base := c.lineBase(set, l.Tag)
		c.backing.Write(base, l.Data)
		c.stats.Writebacks++
		if c.listener != nil {
			c.listener.Writeback(base, l.Data)
		}
	}
	l.Valid = false
	l.Dirty = false
	c.stats.Evictions++
}

// lineBase reconstructs the block base address of a resident line.
func (c *refCache) lineBase(set int, tag uint64) uint64 {
	return tag<<c.geom.tagShift | uint64(set)<<c.geom.blockShift
}

// ReadWord reads size bytes at addr from the resident line (set, way).
// The caller must have established residency via Ensure.
func (c *refCache) ReadWord(set, way int, addr uint64, size uint8) uint64 {
	l := &c.sets[set][way]
	off := c.geom.BlockOffset(addr)
	var buf [8]byte
	n := copy(buf[:size], l.Data[off:])
	if n < int(size) {
		// Access straddles a block boundary; fetch the spill bytes from
		// the next block via backing-consistent path. Workload generators
		// emit aligned accesses, so this path is defensive.
		spill := c.readSpill(addr+uint64(n), int(size)-n)
		copy(buf[n:size], spill)
	}
	return binary.LittleEndian.Uint64(buf[:])
}

func (c *refCache) readSpill(addr uint64, n int) []byte {
	out := make([]byte, n)
	if set, way, hit := c.Probe(addr); hit {
		off := c.geom.BlockOffset(addr)
		copy(out, c.sets[set][way].Data[off:off+n])
		return out
	}
	c.backing.Read(addr, out)
	return out
}

// WriteWord writes the low size bytes of data at addr into the resident line
// (set, way), marking it dirty if the content changed. It reports whether the
// write was silent (stored value identical to the previous content).
func (c *refCache) WriteWord(set, way int, addr uint64, size uint8, data uint64) (silent bool) {
	l := &c.sets[set][way]
	off := c.geom.BlockOffset(addr)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], data)
	n := int(size)
	if off+n > len(l.Data) {
		// Straddling store: write the spill through to backing memory so
		// the architectural image stays exact. Defensive; see ReadWord.
		spill := n - (len(l.Data) - off)
		c.writeSpill(addr+uint64(n-spill), buf[n-spill:n])
		n -= spill
	}
	changed := false
	for i := 0; i < n; i++ {
		if l.Data[off+i] != buf[i] {
			changed = true
			l.Data[off+i] = buf[i]
		}
	}
	if changed {
		l.Dirty = true
	}
	return !changed
}

func (c *refCache) writeSpill(addr uint64, src []byte) {
	if set, way, hit := c.Probe(addr); hit {
		off := c.geom.BlockOffset(addr)
		copy(c.sets[set][way].Data[off:], src)
		c.sets[set][way].Dirty = true
		return
	}
	c.backing.Write(addr, src)
}

// PeekWord reads size bytes at addr from wherever the freshest copy lives
// (cache line if resident, else backing memory), without touching stats or
// replacement state. Used by verification.
func (c *refCache) PeekWord(addr uint64, size uint8) uint64 {
	var buf [8]byte
	for i := 0; i < int(size); i++ {
		buf[i] = c.peekByte(addr + uint64(i))
	}
	return binary.LittleEndian.Uint64(buf[:])
}

func (c *refCache) peekByte(addr uint64) byte {
	if set, way, hit := c.Probe(addr); hit {
		return c.sets[set][way].Data[c.geom.BlockOffset(addr)]
	}
	return c.backing.LoadByte(addr)
}

// Set returns the lines of set s. Controllers use this to model the
// Set-Buffer (a copy of one whole set row); mutating the returned slice
// mutates the cache.
func (c *refCache) Set(s int) []Line { return c.sets[s] }

// SnapshotSet deep-copies set s — filling the Set-Buffer.
func (c *refCache) SnapshotSet(s int) []Line {
	src := c.sets[s]
	out := make([]Line, len(src))
	data := make([]byte, len(src)*c.geom.BlockBytes)
	for w := range src {
		out[w] = src[w]
		out[w].Data, data = data[:c.geom.BlockBytes], data[c.geom.BlockBytes:]
		copy(out[w].Data, src[w].Data)
	}
	return out
}

// SnapshotSetInto copies set s into dst, reusing dst's line buffers — the
// steady-state Set-Buffer refill, which must not allocate on the hot path.
// dst must have come from SnapshotSet on a cache of the same shape; anything
// else (nil included) falls back to a fresh snapshot.
func (c *refCache) SnapshotSetInto(s int, dst []Line) []Line {
	src := c.sets[s]
	if len(dst) != len(src) {
		return c.SnapshotSet(s)
	}
	for w := range src {
		data := dst[w].Data
		if len(data) != c.geom.BlockBytes {
			return c.SnapshotSet(s)
		}
		copy(data, src[w].Data)
		dst[w] = src[w]
		dst[w].Data = data
	}
	return dst
}

// RestoreSet copies buffered lines back into set s — the Set-Buffer
// write-back. Only data and dirty bits move; the protocol in internal/core
// guarantees no structural (tag/valid) change can occur while a set is
// buffered.
func (c *refCache) RestoreSet(s int, lines []Line) {
	dst := c.sets[s]
	for w := range dst {
		copy(dst[w].Data, lines[w].Data)
		dst[w].Dirty = lines[w].Dirty
		dst[w].Tag = lines[w].Tag
		dst[w].Valid = lines[w].Valid
	}
}

// FlushAll writes every dirty line back to memory and invalidates the cache.
func (c *refCache) FlushAll() {
	for s := range c.sets {
		for w := range c.sets[s] {
			c.evict(s, w)
		}
	}
}

// WritebackAll writes every dirty line back to memory, leaving lines valid.
// Attached listeners see these write-backs too — a final drain is real
// downstream traffic, and reporting it keeps the listener's ledger
// consistent with Stats.Writebacks.
func (c *refCache) WritebackAll() {
	for s := range c.sets {
		for w := range c.sets[s] {
			l := &c.sets[s][w]
			if l.Valid && l.Dirty {
				base := c.lineBase(s, l.Tag)
				c.backing.Write(base, l.Data)
				l.Dirty = false
				c.stats.Writebacks++
				if c.listener != nil {
					c.listener.Writeback(base, l.Data)
				}
			}
		}
	}
}

// refPolicy tracks replacement state for one set.
type refPolicy interface {
	// Touch records a hit on way.
	Touch(way int)
	// Insert records a fill into way.
	Insert(way int)
	// Victim picks the way to evict.
	Victim() int
	// state returns the per-set replacement state as an opaque word slice
	// (empty when the policy keeps none), for checkpoint serialization.
	state() []uint32
	// restore replaces the state with one captured by state, validating
	// shape and invariants so a corrupt checkpoint fails closed.
	restore(st []uint32) error
}

func newRefPolicy(kind PolicyKind, ways int, r *rng.Xoshiro256) refPolicy {
	switch kind {
	case LRU:
		return newRefLRUState(ways)
	case FIFO:
		return newRefFIFOState(ways)
	case Random:
		return &refRandomState{ways: ways, r: r}
	case TreePLRU:
		return newRefPLRUState(ways)
	default:
		panic("cache: invalid policy kind")
	}
}

// refLRUState keeps ways ordered from most- to least-recently used.
type refLRUState struct {
	order []int // order[0] is MRU
}

func newRefLRUState(ways int) *refLRUState {
	s := &refLRUState{order: make([]int, ways)}
	for i := range s.order {
		s.order[i] = i
	}
	return s
}

func (s *refLRUState) moveToFront(way int) {
	for i, w := range s.order {
		if w == way {
			copy(s.order[1:i+1], s.order[:i])
			s.order[0] = way
			return
		}
	}
}

func (s *refLRUState) Touch(way int)  { s.moveToFront(way) }
func (s *refLRUState) Insert(way int) { s.moveToFront(way) }
func (s *refLRUState) Victim() int    { return s.order[len(s.order)-1] }

func (s *refLRUState) state() []uint32 { return refWaysToWords(s.order) }

func (s *refLRUState) restore(st []uint32) error {
	order, err := refWordsToPerm(st, len(s.order))
	if err != nil {
		return fmt.Errorf("cache: LRU state: %w", err)
	}
	s.order = order
	return nil
}

// refFIFOState evicts in fill order; hits do not refresh position.
type refFIFOState struct {
	queue []int
}

func newRefFIFOState(ways int) *refFIFOState {
	s := &refFIFOState{queue: make([]int, ways)}
	for i := range s.queue {
		s.queue[i] = i
	}
	return s
}

func (s *refFIFOState) Touch(int) {}

func (s *refFIFOState) Insert(way int) {
	for i, w := range s.queue {
		if w == way {
			copy(s.queue[i:], s.queue[i+1:])
			s.queue[len(s.queue)-1] = way
			return
		}
	}
}

func (s *refFIFOState) Victim() int { return s.queue[0] }

func (s *refFIFOState) state() []uint32 { return refWaysToWords(s.queue) }

func (s *refFIFOState) restore(st []uint32) error {
	queue, err := refWordsToPerm(st, len(s.queue))
	if err != nil {
		return fmt.Errorf("cache: FIFO state: %w", err)
	}
	s.queue = queue
	return nil
}

type refRandomState struct {
	ways int
	r    *rng.Xoshiro256
}

func (s *refRandomState) Touch(int)   {}
func (s *refRandomState) Insert(int)  {}
func (s *refRandomState) Victim() int { return s.r.Intn(s.ways) }

// Random keeps no per-set state; the shared RNG is checkpointed once via
// Cache.RNGState.
func (s *refRandomState) state() []uint32 { return nil }

func (s *refRandomState) restore(st []uint32) error {
	if len(st) != 0 {
		return fmt.Errorf("cache: Random state: want 0 words, got %d", len(st))
	}
	return nil
}

// refPLRUState is a binary-tree pseudo-LRU: one bit per internal node pointing
// toward the colder half. Requires power-of-two ways (guaranteed by Geometry).
type refPLRUState struct {
	bits []bool // heap-ordered internal nodes; len = ways-1
	ways int
}

func newRefPLRUState(ways int) *refPLRUState {
	return &refPLRUState{bits: make([]bool, ways-1), ways: ways}
}

// Touch flips the path bits away from way so the tree points elsewhere.
func (s *refPLRUState) Touch(way int) {
	node := 0
	lo, hi := 0, s.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			s.bits[node] = true // point at the right (cold) half
			node = 2*node + 1
			hi = mid
		} else {
			s.bits[node] = false
			node = 2*node + 2
			lo = mid
		}
	}
}

func (s *refPLRUState) Insert(way int) { s.Touch(way) }

// Victim follows the cold pointers to a leaf. A true bit means "the cold
// half is the right one" (set by Touch on a left-half hit), so Victim
// descends right on true and left on false.
func (s *refPLRUState) Victim() int {
	node := 0
	lo, hi := 0, s.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if s.bits[node] {
			node = 2*node + 2
			lo = mid
		} else {
			node = 2*node + 1
			hi = mid
		}
	}
	return lo
}

func (s *refPLRUState) state() []uint32 {
	st := make([]uint32, len(s.bits))
	for i, b := range s.bits {
		if b {
			st[i] = 1
		}
	}
	return st
}

func (s *refPLRUState) restore(st []uint32) error {
	if len(st) != len(s.bits) {
		return fmt.Errorf("cache: PLRU state: want %d words, got %d", len(s.bits), len(st))
	}
	for i, w := range st {
		if w > 1 {
			return fmt.Errorf("cache: PLRU state: word %d is %d, want 0 or 1", i, w)
		}
		s.bits[i] = w == 1
	}
	return nil
}

// refWaysToWords widens a way-index slice for the opaque state encoding.
func refWaysToWords(ws []int) []uint32 {
	out := make([]uint32, len(ws))
	for i, w := range ws {
		out[i] = uint32(w)
	}
	return out
}

// refWordsToPerm narrows words back to way indices, requiring an exact
// permutation of [0, ways) — the invariant both LRU order and FIFO queue
// maintain.
func refWordsToPerm(st []uint32, ways int) ([]int, error) {
	if len(st) != ways {
		return nil, fmt.Errorf("want %d words, got %d", ways, len(st))
	}
	out := make([]int, ways)
	seen := make([]bool, ways)
	for i, w := range st {
		if int(w) >= ways || seen[w] {
			return nil, fmt.Errorf("words are not a permutation of [0,%d)", ways)
		}
		seen[w] = true
		out[i] = int(w)
	}
	return out, nil
}
