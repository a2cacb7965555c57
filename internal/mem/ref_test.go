package mem

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// refMemory is a plain map of 64 B chunks: the reference model the chunk
// directory is checked against.
type refMemory struct {
	chunks map[uint64]*[ChunkSize]byte
}

func newRef() *refMemory { return &refMemory{chunks: make(map[uint64]*[ChunkSize]byte)} }

func (m *refMemory) chunkFor(addr uint64, create bool) (*[ChunkSize]byte, uint64) {
	base := addr &^ uint64(ChunkSize-1)
	c := m.chunks[base]
	if c == nil && create {
		c = new([ChunkSize]byte)
		m.chunks[base] = c
	}
	return c, addr - base
}

func (m *refMemory) StoreByte(addr uint64, b byte) {
	c, off := m.chunkFor(addr, true)
	c[off] = b
}

func (m *refMemory) Read(addr uint64, dst []byte) {
	for i := range dst {
		if c, off := m.chunkFor(addr+uint64(i), false); c != nil {
			dst[i] = c[off]
		} else {
			dst[i] = 0
		}
	}
}

func (m *refMemory) LoadByte(addr uint64) byte {
	var b [1]byte
	m.Read(addr, b[:])
	return b[0]
}

func (m *refMemory) Write(addr uint64, src []byte) {
	for i, b := range src {
		m.StoreByte(addr+uint64(i), b)
	}
}

func (m *refMemory) Bases() []uint64 {
	bases := make([]uint64, 0, len(m.chunks))
	for base := range m.chunks {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases
}

func (m *refMemory) FootprintBytes() uint64 { return uint64(len(m.chunks)) * ChunkSize }

func (m *refMemory) Clone() *refMemory {
	out := newRef()
	for base, c := range m.chunks {
		dup := *c
		out.chunks[base] = &dup
	}
	return out
}

func (m *refMemory) Equal(other *refMemory) bool {
	return m.coveredBy(other) && other.coveredBy(m)
}

func (m *refMemory) coveredBy(other *refMemory) bool {
	for base, c := range m.chunks {
		oc := other.chunks[base]
		if oc == nil {
			oc = new([ChunkSize]byte)
		}
		if *c != *oc {
			return false
		}
	}
	return true
}

// randAddr picks addresses that cluster around chunk and directory edges
// in a few far-apart regions, so accesses cross both kinds of boundary and
// directories hold a mix of backed and unbacked chunks.
func randAddr(r *rand.Rand) uint64 {
	regions := [...]uint64{0, 1 << 20, 1<<40 - dirBytes, 1<<63 + 5*dirBytes}
	base := regions[r.Intn(len(regions))]
	switch r.Intn(3) {
	case 0: // near a directory edge
		return base + uint64(r.Intn(4))*dirBytes - 12 + uint64(r.Intn(24))
	case 1: // near a chunk edge
		return base + uint64(r.Intn(4*dirChunks))*ChunkSize - 12 + uint64(r.Intn(24))
	default:
		return base + uint64(r.Intn(4*dirBytes))
	}
}

// TestMatchesReferenceModel drives random operation sequences through
// Memory and the chunk-map reference side by side and requires identical
// reads, Bases, FootprintBytes, Clone and Equal answers throughout.
func TestMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		m, ref := New(), newRef()
		// A clone pair taken mid-run and mutated independently afterwards.
		var mc *Memory
		var rc *refMemory
		for op := 0; op < 2000; op++ {
			addr := randAddr(r)
			switch r.Intn(6) {
			case 0:
				// Zero stores allocate all-zero chunks, which Equal must
				// treat as absent.
				b := byte(r.Intn(2) * r.Intn(256))
				m.StoreByte(addr, b)
				ref.StoreByte(addr, b)
			case 1:
				src := make([]byte, r.Intn(3*dirBytes))
				if r.Intn(2) == 0 {
					r.Read(src)
				}
				m.Write(addr, src)
				ref.Write(addr, src)
			case 2:
				size := uint8(1) << r.Intn(4)
				data := r.Uint64()
				m.WriteWord(addr, size, data)
				var buf [8]byte
				for i := range buf[:size] {
					buf[i] = byte(data >> (8 * i))
				}
				ref.Write(addr, buf[:size])
			case 3:
				n := r.Intn(2 * dirBytes)
				got, want := make([]byte, n), make([]byte, n)
				m.Read(addr, got)
				ref.Read(addr, want)
				if string(got) != string(want) {
					t.Fatalf("seed %d op %d: Read(%#x, %d) differs", seed, op, addr, n)
				}
			case 4:
				if got, want := m.LoadByte(addr), ref.LoadByte(addr); got != want {
					t.Fatalf("seed %d op %d: LoadByte(%#x) = %#x want %#x", seed, op, addr, got, want)
				}
			case 5:
				if mc == nil {
					mc, rc = m.Clone(), ref.Clone()
				} else {
					mc.StoreByte(addr, 0xee)
					rc.StoreByte(addr, 0xee)
				}
			}
			if m.FootprintBytes() != ref.FootprintBytes() {
				t.Fatalf("seed %d op %d: footprint %d want %d", seed, op, m.FootprintBytes(), ref.FootprintBytes())
			}
			if mc != nil {
				if got, want := m.Equal(mc), ref.Equal(rc); got != want {
					t.Fatalf("seed %d op %d: Equal(clone) = %v want %v", seed, op, got, want)
				}
				if got, want := mc.Equal(m), rc.Equal(ref); got != want {
					t.Fatalf("seed %d op %d: clone.Equal = %v want %v", seed, op, got, want)
				}
			}
		}
		requireSameImage(t, m, ref)
		if mc != nil {
			requireSameImage(t, mc, rc)
		}
	}
}

func requireSameImage(t *testing.T, m *Memory, ref *refMemory) {
	t.Helper()
	got, want := m.Bases(), ref.Bases()
	if len(got) != len(want) {
		t.Fatalf("Bases: %d chunks want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Bases[%d] = %#x want %#x", i, got[i], want[i])
		}
		var a, b [ChunkSize]byte
		m.Read(got[i], a[:])
		ref.Read(want[i], b[:])
		if a != b {
			t.Fatalf("chunk %#x differs", got[i])
		}
	}
	if m.FootprintBytes() != ref.FootprintBytes() {
		t.Fatalf("footprint %d want %d", m.FootprintBytes(), ref.FootprintBytes())
	}
}

// TestEqualZeroChunkInSharedDirectory covers the case a chunk-granular map
// never had: both memories back the same directory, but only one of them
// backs a particular chunk in it, and that chunk is all zero.
func TestEqualZeroChunkInSharedDirectory(t *testing.T) {
	a, b := New(), New()
	a.StoreByte(0, 1)
	b.StoreByte(0, 1)
	a.StoreByte(ChunkSize*3, 0) // zero chunk only a backs
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("zero chunk in a shared directory should equal an absent one")
	}
	b.StoreByte(ChunkSize*5, 7)
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("chunk only b backs, nonzero, compared equal")
	}
}

// TestHeapPerChunkBound bounds the heap cost of a backed chunk on strided
// write patterns from dense (one chunk per 64 B) to fully scattered (one
// chunk per directory). The scattered end is the worst case an uploaded
// trace can force on a long-running daemon.
func TestHeapPerChunkBound(t *testing.T) {
	const writes = 40000
	const maxPerChunk = 256
	for _, stride := range []uint64{64, 1 << 10, 4 << 10, 1 << 20} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		m := New()
		for i := uint64(0); i < writes; i++ {
			m.WriteWord(i*stride, 8, i|1)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		chunks := m.FootprintBytes() / ChunkSize
		perChunk := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(chunks)
		runtime.KeepAlive(m)
		t.Logf("stride %d: %d chunks, %.0f B heap per chunk", stride, chunks, perChunk)
		if chunks != writes {
			t.Fatalf("stride %d: %d chunks backed, want %d", stride, chunks, writes)
		}
		if perChunk > maxPerChunk {
			t.Errorf("stride %d: %.0f B heap per backed chunk, bound %d", stride, perChunk, maxPerChunk)
		}
	}
}
