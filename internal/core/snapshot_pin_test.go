package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/mem"
	"cache8t/internal/workload"
)

// snapshotPinSHA256 is the digest of the checkpoint blob TestSnapshotBytesPinned
// produces. Journals hold these blobs across daemon restarts and upgrades, so
// a change to any in-memory layout (cache lines, shadow memory, controller
// buffers) must leave them byte-identical, or resume from a journal written
// by the previous binary breaks. Only a deliberate, versioned checkpoint
// format change may move this value.
const snapshotPinSHA256 = "45390cf529e64edeb6099fd8eae36754eafc55ac64e8b4754fe50b886b57f943"

// TestSnapshotBytesPinned checkpoints a fixed WG run (bwaves, seed 1, 50k
// accesses, paper baseline shape) halfway through and compares the blob's
// SHA-256 with the pinned digest.
func TestSnapshotBytesPinned(t *testing.T) {
	prof, err := workload.ProfileByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	accs, err := workload.Take(prof, 1, 50000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cache.DefaultConfig()
	c, err := cache.New(cfg, mem.New())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(WG, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(ctrl)
	d.Feed(accs[:25000])
	blob, err := d.Snapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != snapshotPinSHA256 {
		t.Fatalf("checkpoint digest = %s (%d bytes), want %s: the checkpoint bytes changed", got, len(blob), snapshotPinSHA256)
	}
}
