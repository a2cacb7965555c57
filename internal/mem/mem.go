// Package mem implements a sparse byte-addressable shadow memory.
//
// The simulator needs a memory image for two reasons: the cache model holds
// real line data (so write-backs and fills move actual bytes), and silent
// write detection (paper §3, Figure 5) must compare the value being stored
// with the value already present. Memory is sparse — SPEC-like traces touch
// tiny, scattered fractions of a 48-bit space — so unbacked bytes read as
// zero and storage is allocated in 64 B chunks on first write.
//
// Chunks hang off a two-level index: an open-addressed table from 1 KiB-
// aligned base to a directory of 16 lazily allocated chunk pointers, so a
// dense stream pays one table entry per 16 chunks. The table probes
// linearly from a Fibonacci hash of the base and doubles before it is half
// full, so a lookup is a multiply, a shift and, almost always, one 16 B
// slot. The worst case, one backed chunk per directory on fully scattered
// addresses, costs at most about 250 B of heap per backed chunk (the 128 B
// directory, the chunk and two to four table slots); dense streams cost
// less than a map of chunks would.
package mem

import (
	"encoding/binary"
	"sort"
)

// ChunkSize is the granularity of backing allocation, in bytes.
const ChunkSize = 64

const (
	dirChunks = 16                    // chunk pointers per directory
	dirBytes  = dirChunks * ChunkSize // address span of one directory
)

// dir holds the chunks of one dirBytes-aligned span; nil means unbacked.
type dir [dirChunks]*[ChunkSize]byte

// slot is one directory-table entry. key is the directory's base with its
// low bit set (bases are dirBytes-aligned, so the bit is free); 0 marks an
// empty slot.
type slot struct {
	key uint64
	d   *dir
}

const (
	minSlotsLog2 = 4                  // an empty memory's table has 16 slots
	fibMul       = 0x9E3779B97F4A7C15 // 2^64 / golden ratio
)

// Memory is a sparse byte store. The zero value is not usable; call New.
type Memory struct {
	slots  []slot // power-of-two length, at most half full
	shift  uint   // 64 - log2(len(slots)): keeps the hash's top bits
	dirs   int    // occupied slots
	chunks int    // backed chunks across all directories
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{slots: make([]slot, 1<<minSlotsLog2), shift: 64 - minSlotsLog2}
}

// find returns the slot holding key, or the empty slot where it would go.
func (m *Memory) find(key uint64) *slot {
	mask := uint64(len(m.slots) - 1)
	for i := (key * fibMul) >> m.shift; ; i = (i + 1) & mask {
		if s := &m.slots[i]; s.key == key || s.key == 0 {
			return s
		}
	}
}

// grow doubles the table and reinserts every directory.
func (m *Memory) grow() {
	old := m.slots
	*m = Memory{slots: make([]slot, 2*len(old)), shift: m.shift - 1, dirs: m.dirs, chunks: m.chunks}
	for _, s := range old {
		if s.key != 0 {
			*m.find(s.key) = s
		}
	}
}

// dirFor returns the directory holding addr, creating it when create is
// set; otherwise it returns nil for an unbacked span.
func (m *Memory) dirFor(addr uint64, create bool) *dir {
	key := addr&^uint64(dirBytes-1) | 1
	s := m.find(key)
	if s.key != 0 || !create {
		return s.d
	}
	if 2*(m.dirs+1) > len(m.slots) {
		m.grow()
		s = m.find(key)
	}
	m.dirs++
	*s = slot{key: key, d: new(dir)}
	return s.d
}

func (m *Memory) chunkFor(addr uint64, create bool) (*[ChunkSize]byte, uint64) {
	off := addr & uint64(ChunkSize-1)
	d := m.dirFor(addr, create)
	if d == nil {
		return nil, off
	}
	i := (addr / ChunkSize) % dirChunks
	c := d[i]
	if c == nil && create {
		c = new([ChunkSize]byte)
		d[i] = c
		m.chunks++
	}
	return c, off
}

// LoadByte returns the byte at addr (zero if unbacked).
func (m *Memory) LoadByte(addr uint64) byte {
	c, off := m.chunkFor(addr, false)
	if c == nil {
		return 0
	}
	return c[off]
}

// StoreByte stores b at addr.
func (m *Memory) StoreByte(addr uint64, b byte) {
	c, off := m.chunkFor(addr, true)
	c[off] = b
}

// Read copies len(dst) bytes starting at addr into dst.
func (m *Memory) Read(addr uint64, dst []byte) {
	for len(dst) > 0 {
		c, off := m.chunkFor(addr, false)
		n := ChunkSize - int(off)
		if n > len(dst) {
			n = len(dst)
		}
		if c == nil {
			clear(dst[:n])
		} else {
			copy(dst, c[off:int(off)+n])
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// Write copies src into memory starting at addr.
func (m *Memory) Write(addr uint64, src []byte) {
	for len(src) > 0 {
		c, off := m.chunkFor(addr, true)
		n := copy(c[off:], src)
		src = src[n:]
		addr += uint64(n)
	}
}

// ReadWord returns size bytes at addr as a little-endian integer.
// size must be 1, 2, 4, or 8.
func (m *Memory) ReadWord(addr uint64, size uint8) uint64 {
	var buf [8]byte
	m.Read(addr, buf[:size])
	return binary.LittleEndian.Uint64(buf[:])
}

// WriteWord stores the low size bytes of data at addr, little-endian.
func (m *Memory) WriteWord(addr uint64, size uint8, data uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], data)
	m.Write(addr, buf[:size])
}

// WouldBeSilent reports whether writing data (size bytes) at addr would leave
// memory unchanged — the definition of a silent store (Lepak & Lipasti).
func (m *Memory) WouldBeSilent(addr uint64, size uint8, data uint64) bool {
	mask := ^uint64(0)
	if size < 8 {
		mask = 1<<(8*size) - 1
	}
	return m.ReadWord(addr, size) == data&mask
}

// Bases returns the base address of every backed chunk in ascending order.
// Checkpoint serialization needs a deterministic iteration order; table
// order would make snapshot bytes differ between identical states.
func (m *Memory) Bases() []uint64 {
	dirs := make([]slot, 0, m.dirs)
	for _, s := range m.slots {
		if s.key != 0 {
			dirs = append(dirs, s)
		}
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].key < dirs[j].key })
	bases := make([]uint64, 0, m.chunks)
	for _, s := range dirs {
		for i, c := range s.d {
			if c != nil {
				bases = append(bases, s.key&^1+uint64(i)*ChunkSize)
			}
		}
	}
	return bases
}

// FootprintBytes returns the number of backed bytes.
func (m *Memory) FootprintBytes() uint64 {
	return uint64(m.chunks) * ChunkSize
}

// Clone returns a deep copy of the memory image. Used by correctness property
// tests to run two controllers from identical initial state.
func (m *Memory) Clone() *Memory {
	out := *m
	out.slots = make([]slot, len(m.slots))
	for i, s := range m.slots {
		if s.key == 0 {
			continue
		}
		var dup dir
		for j, c := range s.d {
			if c != nil {
				cc := *c
				dup[j] = &cc
			}
		}
		out.slots[i] = slot{key: s.key, d: &dup}
	}
	return &out
}

// Equal reports whether two memories hold the same image (unbacked bytes
// compare as zero, so a chunk of zeros equals an absent chunk).
func (m *Memory) Equal(other *Memory) bool {
	return m.coveredBy(other) && other.coveredBy(m)
}

func (m *Memory) coveredBy(other *Memory) bool {
	for _, s := range m.slots {
		if s.key == 0 {
			continue
		}
		od := other.find(s.key).d
		for i, c := range s.d {
			if c == nil {
				continue
			}
			var oc *[ChunkSize]byte
			if od != nil {
				oc = od[i]
			}
			if oc == nil {
				if *c != ([ChunkSize]byte{}) {
					return false
				}
				continue
			}
			if *c != *oc {
				return false
			}
		}
	}
	return true
}
