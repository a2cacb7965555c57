// Package cache implements the functional set-associative L1 data cache the
// controllers in internal/core operate on: write-allocate, write-back, with
// real line data so silent-write detection and memory-image verification are
// exact rather than statistical.
//
// The cache is purely functional (hits, misses, data movement). How many
// *SRAM array* operations a request costs is the controllers' concern — the
// whole point of the paper is that the same functional request stream can be
// served with very different array traffic.
package cache

import (
	"encoding/binary"
	"fmt"

	"cache8t/internal/mem"
	"cache8t/internal/rng"
)

// Line is one cache block: metadata plus data bytes. The cache itself does
// not store Lines (see Cache); a Line is the copy SnapshotSet hands out and
// RestoreSet takes back, for the Set-Buffer and for checkpoints.
type Line struct {
	Tag   uint64
	Valid bool
	Dirty bool
	Data  []byte
}

// Stats counts functional cache events.
type Stats struct {
	ReadHits    uint64
	ReadMisses  uint64
	WriteHits   uint64
	WriteMisses uint64
	Fills       uint64
	Evictions   uint64
	Writebacks  uint64
}

// Hits returns total hits.
func (s Stats) Hits() uint64 { return s.ReadHits + s.WriteHits }

// Misses returns total misses.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// Accesses returns total requests.
func (s Stats) Accesses() uint64 { return s.Hits() + s.Misses() }

// MissRate returns misses / accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Accesses())
}

// Listener observes the cache's externally visible block traffic: the fills
// and write-backs a next level of the hierarchy would see. Both fire with
// the block's base address; Writeback also carries the victim's data (valid
// only for the duration of the call). Per-miss order is deterministic:
// the victim's Writeback (if dirty) strictly precedes the Fill that evicted
// it. Functional stats are unaffected by whether a listener is attached.
type Listener interface {
	Fill(blockAddr uint64)
	Writeback(blockAddr uint64, data []byte)
}

// Config configures a Cache.
type Config struct {
	SizeBytes  int
	Ways       int
	BlockBytes int
	Policy     PolicyKind
	// Seed feeds the Random replacement policy; ignored by others.
	Seed uint64
	// NoWriteAllocate makes write misses bypass the cache (write-around to
	// memory) instead of filling a line. The paper's baseline allocates;
	// this knob drives the allocation-policy sensitivity experiment.
	NoWriteAllocate bool
}

// DefaultConfig is the paper's baseline: 64 KB, 4-way, 32 B blocks, LRU.
func DefaultConfig() Config {
	return Config{SizeBytes: 64 * 1024, Ways: 4, BlockBytes: 32, Policy: LRU}
}

// Cache is a set-associative, write-back data cache backed by a shadow
// memory; write-allocate by default, write-around when Config.NoWriteAllocate
// is set.
//
// Layout: the lines are stored as structure-of-arrays, set-major (line i is
// way i%Ways of set i/Ways). tags[i] holds the line's tag with validBit set
// while it is valid, dirty[i] its dirty bit, and data[i*BlockBytes:] its
// bytes, so a lookup or a free-way scan reads Ways contiguous words and a
// line costs BlockBytes+9 bytes plus its replacement words. An invalid line
// keeps its stale tag (only validBit is cleared): snapshots and checkpoints
// expose that tag exactly as a line-struct cache would.
type Cache struct {
	geom  Geometry
	tags  []uint64
	dirty []bool
	data  []byte
	repl  replacer
	// rand is the RNG shared by every set's Random replacement policy
	// (unused by the deterministic policies). Retained so checkpointing can
	// capture and restore its state.
	rand     *rng.Xoshiro256
	backing  *mem.Memory
	stats    Stats
	noAlloc  bool
	listener Listener
}

// validBit marks a valid way in the probe index. Tags are addresses
// shifted right by at least three bits, so they never reach bit 63.
const validBit = 1 << 63

// SetListener attaches (or, with nil, detaches) the block-traffic observer.
// At most one listener is supported; internal/hier uses it to drive an L2.
func (c *Cache) SetListener(l Listener) { c.listener = l }

// New builds a cache over backing memory.
func New(cfg Config, backing *mem.Memory) (*Cache, error) {
	geom, err := NewGeometry(cfg.SizeBytes, cfg.Ways, cfg.BlockBytes)
	if err != nil {
		return nil, err
	}
	if backing == nil {
		return nil, fmt.Errorf("cache: nil backing memory")
	}
	r := rng.New(cfg.Seed)
	n := geom.Sets * geom.Ways
	return &Cache{
		geom:    geom,
		tags:    make([]uint64, n),
		dirty:   make([]bool, n),
		data:    make([]byte, n*geom.BlockBytes),
		repl:    newReplacer(cfg.Policy, geom.Sets, geom.Ways, r),
		rand:    r,
		backing: backing,
		noAlloc: cfg.NoWriteAllocate,
	}, nil
}

// index returns the line index of way in set.
func (c *Cache) index(set, way int) int { return set*c.geom.Ways + way }

// lineData returns line i's data bytes.
func (c *Cache) lineData(i int) []byte {
	b := c.geom.BlockBytes
	return c.data[i*b : (i+1)*b : (i+1)*b]
}

// setTags returns set's slice of the probe index.
func (c *Cache) setTags(set int) []uint64 {
	i := c.index(set, 0)
	return c.tags[i : i+c.geom.Ways]
}

// Geometry returns the cache shape.
func (c *Cache) Geometry() Geometry { return c.geom }

// Stats returns a copy of the functional event counters.
func (c *Cache) Stats() Stats { return c.stats }

// RestoreStats replaces the functional event counters, for checkpoint
// restore.
func (c *Cache) RestoreStats(s Stats) { c.stats = s }

// PolicyState returns set s's replacement state as an opaque word slice
// (empty for stateless policies). Paired with RestorePolicyState.
func (c *Cache) PolicyState(s int) []uint32 { return c.repl.state(s) }

// RestorePolicyState replaces set s's replacement state with one captured by
// PolicyState on a cache of the same configuration.
func (c *Cache) RestorePolicyState(s int, st []uint32) error {
	return c.repl.restore(s, st)
}

// RNGState returns the state of the RNG shared by the Random replacement
// policy. Paired with RestoreRNGState.
func (c *Cache) RNGState() [4]uint64 { return c.rand.State() }

// RestoreRNGState replaces the shared replacement RNG's state.
func (c *Cache) RestoreRNGState(s [4]uint64) { c.rand.Restore(s) }

// Backing returns the cache's backing memory.
func (c *Cache) Backing() *mem.Memory { return c.backing }

// NoWriteAllocate reports whether write misses bypass the cache.
func (c *Cache) NoWriteAllocate() bool { return c.noAlloc }

// WriteAround performs a write-around for a write miss under the
// no-write-allocate policy: the data goes straight to memory and the miss
// is accounted, with no fill and no replacement update. The caller must
// have established via Probe that addr's block is not resident; bytes that
// straddle into a *resident* neighbour block are written into that line so
// the freshest copy stays unique.
func (c *Cache) WriteAround(addr uint64, size uint8, data uint64) {
	c.stats.WriteMisses++
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], data)
	for i := 0; i < int(size); i++ {
		b := addr + uint64(i)
		if set, way, hit := c.Probe(b); hit {
			j := c.index(set, way)
			off := c.geom.BlockOffset(b)
			if d := c.lineData(j); d[off] != buf[i] {
				d[off] = buf[i]
				c.dirty[j] = true
			}
			continue
		}
		c.backing.StoreByte(b, buf[i])
	}
}

// Probe looks up addr without side effects. It returns the set index, the
// way holding the block (-1 on miss), and whether it hit.
func (c *Cache) Probe(addr uint64) (set, way int, hit bool) {
	set = c.geom.SetIndex(addr)
	want := c.geom.Tag(addr) | validBit
	for w, t := range c.setTags(set) {
		if t == want {
			return set, w, true
		}
	}
	return set, -1, false
}

// Ensure makes addr's block resident: on a miss it evicts a victim (writing
// back dirty data) and fills from backing memory. It updates replacement
// state and hit/miss counters according to isWrite. It returns the set, the
// way now holding the block, and whether the request hit.
func (c *Cache) Ensure(addr uint64, isWrite bool) (set, way int, hit bool) {
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
		c.repl.Touch(set, way)
		return set, way, true
	}
	way = c.fill(set, c.geom.Tag(addr), c.geom.BlockBase(addr))
	return set, way, false
}

// fill victimizes a way in set and loads the block at base into it.
func (c *Cache) fill(set int, tag, base uint64) int {
	way := -1
	for w, t := range c.setTags(set) {
		if t&validBit == 0 {
			way = w
			break
		}
	}
	if way < 0 {
		way = c.repl.Victim(set)
		c.evict(set, way)
	}
	i := c.index(set, way)
	c.backing.Read(base, c.lineData(i))
	c.tags[i] = tag | validBit
	c.dirty[i] = false
	c.stats.Fills++
	if c.listener != nil {
		c.listener.Fill(base)
	}
	c.repl.Insert(set, way)
	return way
}

// evict writes back way's line if dirty and invalidates it, keeping its
// stale tag.
func (c *Cache) evict(set, way int) {
	i := c.index(set, way)
	if c.tags[i]&validBit == 0 {
		return
	}
	c.writeback(set, i)
	c.tags[i] &^= validBit
	c.stats.Evictions++
}

// writeback writes valid line i of set back to memory if it is dirty and
// marks it clean.
func (c *Cache) writeback(set, i int) {
	if !c.dirty[i] {
		return
	}
	base := c.lineBase(set, c.tags[i]&^validBit)
	data := c.lineData(i)
	c.backing.Write(base, data)
	c.dirty[i] = false
	c.stats.Writebacks++
	if c.listener != nil {
		c.listener.Writeback(base, data)
	}
}

// lineBase reconstructs the block base address of a resident line.
func (c *Cache) lineBase(set int, tag uint64) uint64 {
	return tag<<c.geom.tagShift | uint64(set)<<c.geom.blockShift
}

// ReadWord reads size bytes at addr from the resident line (set, way).
// The caller must have established residency via Ensure.
func (c *Cache) ReadWord(set, way int, addr uint64, size uint8) uint64 {
	off := c.geom.BlockOffset(addr)
	var buf [8]byte
	n := copy(buf[:size], c.lineData(c.index(set, way))[off:])
	if n < int(size) {
		// Access straddles a block boundary; fetch the spill bytes from
		// the next block via backing-consistent path. Workload generators
		// emit aligned accesses, so this path is defensive.
		spill := c.readSpill(addr+uint64(n), int(size)-n)
		copy(buf[n:size], spill)
	}
	return binary.LittleEndian.Uint64(buf[:])
}

func (c *Cache) readSpill(addr uint64, n int) []byte {
	out := make([]byte, n)
	if set, way, hit := c.Probe(addr); hit {
		off := c.geom.BlockOffset(addr)
		copy(out, c.lineData(c.index(set, way))[off:off+n])
		return out
	}
	c.backing.Read(addr, out)
	return out
}

// WriteWord writes the low size bytes of data at addr into the resident line
// (set, way), marking it dirty if the content changed. It reports whether the
// write was silent (stored value identical to the previous content).
func (c *Cache) WriteWord(set, way int, addr uint64, size uint8, data uint64) (silent bool) {
	i := c.index(set, way)
	line := c.lineData(i)
	off := c.geom.BlockOffset(addr)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], data)
	n := int(size)
	if off+n > len(line) {
		// Straddling store: write the spill through to backing memory so
		// the architectural image stays exact. Defensive; see ReadWord.
		spill := n - (len(line) - off)
		c.writeSpill(addr+uint64(n-spill), buf[n-spill:n])
		n -= spill
	}
	changed := false
	for k := 0; k < n; k++ {
		if line[off+k] != buf[k] {
			changed = true
			line[off+k] = buf[k]
		}
	}
	if changed {
		c.dirty[i] = true
	}
	return !changed
}

func (c *Cache) writeSpill(addr uint64, src []byte) {
	if set, way, hit := c.Probe(addr); hit {
		i := c.index(set, way)
		copy(c.lineData(i)[c.geom.BlockOffset(addr):], src)
		c.dirty[i] = true
		return
	}
	c.backing.Write(addr, src)
}

// PeekWord reads size bytes at addr from wherever the freshest copy lives
// (cache line if resident, else backing memory), without touching stats or
// replacement state. Used by verification.
func (c *Cache) PeekWord(addr uint64, size uint8) uint64 {
	var buf [8]byte
	for i := 0; i < int(size); i++ {
		buf[i] = c.peekByte(addr + uint64(i))
	}
	return binary.LittleEndian.Uint64(buf[:])
}

func (c *Cache) peekByte(addr uint64) byte {
	if set, way, hit := c.Probe(addr); hit {
		return c.lineData(c.index(set, way))[c.geom.BlockOffset(addr)]
	}
	return c.backing.LoadByte(addr)
}

// SnapshotSet deep-copies set s — filling the Set-Buffer. Reading a set
// always goes through a copy: the cache's own lines change only through its
// methods.
func (c *Cache) SnapshotSet(s int) []Line {
	out := make([]Line, c.geom.Ways)
	data := make([]byte, c.geom.Ways*c.geom.BlockBytes)
	for w := range out {
		out[w].Data, data = data[:c.geom.BlockBytes:c.geom.BlockBytes], data[c.geom.BlockBytes:]
	}
	c.copySet(s, out)
	return out
}

// SnapshotSetInto copies set s into dst, reusing dst's line buffers — the
// steady-state Set-Buffer refill, which must not allocate on the hot path.
// dst must have come from SnapshotSet on a cache of the same shape; anything
// else (nil included) falls back to a fresh snapshot.
func (c *Cache) SnapshotSetInto(s int, dst []Line) []Line {
	if len(dst) != c.geom.Ways {
		return c.SnapshotSet(s)
	}
	for w := range dst {
		if len(dst[w].Data) != c.geom.BlockBytes {
			return c.SnapshotSet(s)
		}
	}
	c.copySet(s, dst)
	return dst
}

// copySet copies set s's lines into dst, whose Data buffers are already
// BlockBytes long.
func (c *Cache) copySet(s int, dst []Line) {
	for w := range dst {
		i := c.index(s, w)
		t := c.tags[i]
		dst[w].Tag = t &^ validBit
		dst[w].Valid = t&validBit != 0
		dst[w].Dirty = c.dirty[i]
		copy(dst[w].Data, c.lineData(i))
	}
}

// RestoreSet copies lines back into set s: data, dirty bits, tags and valid
// bits. It is the Set-Buffer write-back (where the protocol in
// internal/core guarantees the tags and valid bits are unchanged) and the
// way checkpoint restore rebuilds a set.
func (c *Cache) RestoreSet(s int, lines []Line) {
	for w := 0; w < c.geom.Ways; w++ {
		i := c.index(s, w)
		copy(c.lineData(i), lines[w].Data)
		c.dirty[i] = lines[w].Dirty
		// Real tags never reach validBit; masking it keeps a malformed
		// checkpoint from turning an invalid way valid.
		c.tags[i] = lines[w].Tag &^ validBit
		if lines[w].Valid {
			c.tags[i] |= validBit
		}
	}
}

// FlushAll writes every dirty line back to memory and invalidates the cache.
func (c *Cache) FlushAll() {
	for s := 0; s < c.geom.Sets; s++ {
		for w := 0; w < c.geom.Ways; w++ {
			c.evict(s, w)
		}
	}
}

// WritebackAll writes every dirty line back to memory, leaving lines valid.
// Attached listeners see these write-backs too — a final drain is real
// downstream traffic, and reporting it keeps the listener's ledger
// consistent with Stats.Writebacks.
func (c *Cache) WritebackAll() {
	for s := 0; s < c.geom.Sets; s++ {
		for w := 0; w < c.geom.Ways; w++ {
			if i := c.index(s, w); c.tags[i]&validBit != 0 {
				c.writeback(s, i)
			}
		}
	}
}
