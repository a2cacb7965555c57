package cache

import (
	"fmt"
	"reflect"
	"testing"

	"cache8t/internal/mem"
	"cache8t/internal/rng"
)

// eventLog records a Listener's block traffic for comparison.
type eventLog struct{ events []string }

func (l *eventLog) Fill(base uint64) { l.events = append(l.events, fmt.Sprintf("F%#x", base)) }
func (l *eventLog) Writeback(base uint64, data []byte) {
	l.events = append(l.events, fmt.Sprintf("W%#x:%x", base, data))
}

// TestFlatCacheMatchesReference drives the flat cache and the frozen
// pre-flattening reference (ref_cache_test.go) through the same random
// operations — Ensure, ReadWord, WriteWord, WriteAround, SnapshotSetInto,
// RestoreSet, FlushAll, WritebackAll and policy-state round trips — over
// every policy and the edge geometries, and requires identical returns,
// set contents, listener traffic, stats, RNG state and memory images.
func TestFlatCacheMatchesReference(t *testing.T) {
	shapes := []struct{ size, ways, block int }{
		{128, 4, 32},   // one set
		{1024, 1, 32},  // direct-mapped
		{4096, 16, 32}, // 16 ways
		{2048, 4, 64},  // 64 B blocks
	}
	policies := []PolicyKind{LRU, FIFO, Random, TreePLRU}
	for _, sh := range shapes {
		for _, pol := range policies {
			cfg := Config{SizeBytes: sh.size, Ways: sh.ways, BlockBytes: sh.block, Policy: pol, Seed: 5}
			t.Run(fmt.Sprintf("%dB-%dway-%dB-%v", sh.size, sh.ways, sh.block, pol), func(t *testing.T) {
				for seed := uint64(1); seed <= 3; seed++ {
					diffCaches(t, cfg, seed)
				}
			})
		}
	}
}

func diffCaches(t *testing.T, cfg Config, seed uint64) {
	t.Helper()
	flat, err := New(cfg, mem.New())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefCache(cfg, mem.New())
	if err != nil {
		t.Fatal(err)
	}
	var flatLog, refLog eventLog
	flat.SetListener(&flatLog)
	ref.SetListener(&refLog)
	g := flat.Geometry()
	r := rng.New(seed)
	// Three times the cache's blocks keep every set under replacement
	// pressure.
	blocks := 3 * g.Sets * g.Ways
	addr := func() uint64 {
		return uint64(r.Intn(blocks * g.BlockBytes))
	}
	sizes := []uint8{1, 2, 4, 8}
	var flatBuf, refBuf []Line

	for step := 0; step < 3000; step++ {
		where := func() string { return fmt.Sprintf("seed %d step %d", seed, step) }
		switch op := r.Intn(100); {
		case op < 40: // read
			a, size := addr(), sizes[r.Intn(4)]
			fs, fw, fh := flat.Ensure(a, false)
			rs, rw, rh := ref.Ensure(a, false)
			if fs != rs || fw != rw || fh != rh {
				t.Fatalf("%s: Ensure(%#x, read) = %d,%d,%v, want %d,%d,%v", where(), a, fs, fw, fh, rs, rw, rh)
			}
			if fv, rv := flat.ReadWord(fs, fw, a, size), ref.ReadWord(rs, rw, a, size); fv != rv {
				t.Fatalf("%s: ReadWord(%#x) = %#x, want %#x", where(), a, fv, rv)
			}
		case op < 75: // write, through the allocate or the write-around path
			a, size, data := addr(), sizes[r.Intn(4)], r.Uint64()
			if r.Intn(4) == 0 {
				data = 0 // silent over unbacked memory
			}
			_, _, fh := flat.Probe(a)
			_, _, rh := ref.Probe(a)
			if fh != rh {
				t.Fatalf("%s: Probe(%#x) hit %v, want %v", where(), a, fh, rh)
			}
			if !fh && r.Intn(3) == 0 {
				flat.WriteAround(a, size, data)
				ref.WriteAround(a, size, data)
				break
			}
			fs, fw, _ := flat.Ensure(a, true)
			rs, rw, _ := ref.Ensure(a, true)
			if fs != rs || fw != rw {
				t.Fatalf("%s: Ensure(%#x, write) = %d,%d, want %d,%d", where(), a, fs, fw, rs, rw)
			}
			if fsl, rsl := flat.WriteWord(fs, fw, a, size, data), ref.WriteWord(rs, rw, a, size, data); fsl != rsl {
				t.Fatalf("%s: WriteWord silent %v, want %v", where(), fsl, rsl)
			}
		case op < 85: // Set-Buffer round trip, sometimes with a structural change
			s := r.Intn(g.Sets)
			flatBuf = flat.SnapshotSetInto(s, flatBuf)
			refBuf = ref.SnapshotSetInto(s, refBuf)
			requireSameLines(t, where(), flatBuf, refBuf)
			w := r.Intn(g.Ways)
			flatBuf[w].Data[0]++
			refBuf[w].Data[0]++
			flatBuf[w].Dirty, refBuf[w].Dirty = true, true
			if r.Intn(3) == 0 {
				tag, valid := uint64(r.Intn(4)), r.Intn(2) == 0
				flatBuf[w].Tag, refBuf[w].Tag = tag, tag
				flatBuf[w].Valid, refBuf[w].Valid = valid, valid
			}
			flat.RestoreSet(s, flatBuf)
			ref.RestoreSet(s, refBuf)
		case op < 95: // policy-state round trip, then a random replacement
			s := r.Intn(g.Sets)
			fst, rst := flat.PolicyState(s), ref.PolicyState(s)
			if !reflect.DeepEqual(fst, rst) {
				t.Fatalf("%s: PolicyState(%d) = %v, want %v", where(), s, fst, rst)
			}
			next := randomPolicyState(r, cfg.Policy, g.Ways)
			fe, re := flat.RestorePolicyState(s, next), ref.RestorePolicyState(s, next)
			if (fe == nil) != (re == nil) || (fe != nil && fe.Error() != re.Error()) {
				t.Fatalf("%s: RestorePolicyState(%v) = %v, want %v", where(), next, fe, re)
			}
		case op < 97:
			flat.WritebackAll()
			ref.WritebackAll()
		default:
			flat.FlushAll()
			ref.FlushAll()
		}
	}

	for s := 0; s < g.Sets; s++ {
		requireSameLines(t, fmt.Sprintf("seed %d final set %d", seed, s), flat.SnapshotSet(s), ref.SnapshotSet(s))
		if fst, rst := flat.PolicyState(s), ref.PolicyState(s); !reflect.DeepEqual(fst, rst) {
			t.Fatalf("seed %d: final PolicyState(%d) = %v, want %v", seed, s, fst, rst)
		}
	}
	if flat.Stats() != ref.Stats() {
		t.Fatalf("seed %d: stats %+v, want %+v", seed, flat.Stats(), ref.Stats())
	}
	if flat.RNGState() != ref.RNGState() {
		t.Fatalf("seed %d: RNG state differs", seed)
	}
	if !reflect.DeepEqual(flatLog.events, refLog.events) {
		t.Fatalf("seed %d: listener saw %d events, reference %d (or different ones)", seed, len(flatLog.events), len(refLog.events))
	}
	if !flat.Backing().Equal(ref.Backing()) {
		t.Fatalf("seed %d: memory images differ", seed)
	}
	for i := 0; i < 200; i++ {
		a, size := addr(), sizes[r.Intn(4)]
		if fv, rv := flat.PeekWord(a, size), ref.PeekWord(a, size); fv != rv {
			t.Fatalf("seed %d: PeekWord(%#x) = %#x, want %#x", seed, a, fv, rv)
		}
	}
}

func requireSameLines(t *testing.T, where string, got, want []Line) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: set lines\n got %+v\nwant %+v", where, got, want)
	}
}

// randomPolicyState returns a state for one set: usually a valid one for
// kind, sometimes a malformed one both caches must reject identically.
func randomPolicyState(r *rng.Xoshiro256, kind PolicyKind, ways int) []uint32 {
	n := 0
	switch kind {
	case LRU, FIFO:
		n = ways
	case TreePLRU:
		n = ways - 1
	}
	st := make([]uint32, n)
	switch kind {
	case LRU, FIFO:
		for i := range st {
			st[i] = uint32(i)
		}
		for i := len(st) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			st[i], st[j] = st[j], st[i]
		}
	case TreePLRU:
		for i := range st {
			st[i] = uint32(r.Intn(2))
		}
	}
	switch r.Intn(8) {
	case 0:
		st = append(st, 0) // wrong length
	case 1:
		if len(st) > 0 {
			st[0] = uint32(ways + 1) // out of range
		}
	}
	return st
}
