package mem

import (
	"sort"
	"testing"

	"cache8t/internal/rng"
)

// TestDirectoryTableGrowth grows the open-addressed directory table through
// many doublings against a Go map of the same directories. Bases mix dense
// runs, power-of-two strides (which share low bits and so stress the hash)
// and random 48-bit addresses, base 0 included. After every insert the
// table must stay at most half full, find every directory stored so far
// (with its bytes), report unbacked spans as absent, and list Bases in the
// same ascending order the map gives.
func TestDirectoryTableGrowth(t *testing.T) {
	r := rng.New(21)
	m := New()
	want := map[uint64]byte{} // directory base -> byte stored at base+5
	var order []uint64
	add := func(base uint64) {
		base &^= dirBytes - 1
		if _, ok := want[base]; ok {
			return
		}
		b := byte(len(order)%251 + 1)
		m.StoreByte(base+5, b)
		want[base] = b
		order = append(order, base)
		if 2*m.dirs > len(m.slots) {
			t.Fatalf("%d directories in %d slots: load above one half", m.dirs, len(m.slots))
		}
	}
	check := func() {
		t.Helper()
		if m.dirs != len(want) {
			t.Fatalf("table holds %d directories, map %d", m.dirs, len(want))
		}
		for base, b := range want {
			if got := m.LoadByte(base + 5); got != b {
				t.Fatalf("base %#x: byte %d, want %d", base, got, b)
			}
			if m.LoadByte(base+dirBytes/2) != 0 {
				t.Fatalf("base %#x: unwritten byte is not zero", base)
			}
		}
		bases := make([]uint64, 0, len(want))
		for base := range want {
			bases = append(bases, base)
		}
		sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
		got := m.Bases()
		if len(got) != len(bases) {
			t.Fatalf("Bases has %d chunks, want %d", len(got), len(bases))
		}
		for i := range bases {
			if got[i] != bases[i] {
				t.Fatalf("Bases[%d] = %#x, want %#x", i, got[i], bases[i])
			}
		}
	}

	for i := uint64(0); i < 3000; i++ {
		add(i * dirBytes) // dense, from base 0
		if i%100 == 99 {
			check()
		}
	}
	for i := uint64(0); i < 3000; i++ {
		add(i << 32) // one bit pattern in the high half
		add(i << 20)
		add(r.Uint64() & (1<<48 - 1))
		if i%100 == 99 {
			check()
		}
	}
	check()
	for i := uint64(0); i < 2000; i++ {
		span := i<<32 | 1<<31 | 1<<19
		if m.LoadByte(span+5) != 0 {
			t.Fatalf("never-written span %#x reads nonzero", span)
		}
	}

	c := m.Clone()
	if !c.Equal(m) || !m.Equal(c) {
		t.Fatal("clone of the grown table is not equal to it")
	}
	c.StoreByte(order[len(order)/2]+5, 0)
	if c.Equal(m) {
		t.Fatal("clone still equal after a store")
	}
}
