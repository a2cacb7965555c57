package report

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/rng"
	"cache8t/internal/workload"
)

func TestEncodeRejectsWrongSchema(t *testing.T) {
	a := New("test", 1)
	a.Schema = SchemaVersion + 1
	if _, err := Encode(a); err == nil {
		t.Fatal("encode accepted wrong schema version")
	}
	if _, err := Encode(nil); err == nil {
		t.Fatal("encode accepted nil artifact")
	}
}

func TestDecodeRejectsWrongSchema(t *testing.T) {
	a := New("test", 1)
	a.SetConfig("n", 10)
	b, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the schema field in the canonical bytes; the rest stays valid.
	tampered := bytes.Replace(b, []byte(`"schema": 1`), []byte(`"schema": 99`), 1)
	if bytes.Equal(tampered, b) {
		t.Fatal("test setup: schema field not found in encoding")
	}
	_, err = Decode(tampered)
	if err == nil {
		t.Fatal("decode accepted schema 99")
	}
	if !strings.Contains(err.Error(), "schema 99") {
		t.Fatalf("schema error should name the offending version, got: %v", err)
	}
}

func TestDecodeRejectsTamperedConfig(t *testing.T) {
	a := New("test", 1)
	a.SetConfig("n", 400000)
	b, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-edit a config value without refreshing the hash — the classic
	// "tweaked the golden by hand" mistake the hash exists to catch.
	tampered := bytes.Replace(b, []byte(`"n": "400000"`), []byte(`"n": "999999"`), 1)
	if bytes.Equal(tampered, b) {
		t.Fatal("test setup: config value not found in encoding")
	}
	_, err = Decode(tampered)
	if err == nil {
		t.Fatal("decode accepted artifact with stale config hash")
	}
	if !strings.Contains(err.Error(), "edited or corrupted") {
		t.Fatalf("hash error should explain the artifact was edited, got: %v", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not json")); err == nil {
		t.Fatal("decode accepted non-JSON input")
	}
}

func TestWriteReadFileRoundTrip(t *testing.T) {
	a := New("test", 9)
	a.SetConfig("shape", "32KB/4w/64B")
	a.SetMetric("miss_rate", 0.0325)
	path := filepath.Join(t.TempDir(), "nested", "dir", "artifact.json")
	if err := WriteFile(path, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tool != "test" || back.Seed != 9 || back.Metrics["miss_rate"] != 0.0325 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("ReadFile succeeded on a missing path")
	}
}

// TestLedgerMatchesResult runs a real controller and checks the flattened
// ledger agrees with the Result it came from.
func TestLedgerMatchesResult(t *testing.T) {
	gen, err := workload.Stream("lbm", 1)
	if err != nil {
		t.Fatal(err)
	}
	shape := cache.Config{SizeBytes: 32 * 1024, Ways: 4, BlockBytes: 64}
	res, err := core.RunStreamContext(context.Background(), core.WG, shape, core.Options{}, gen, 5000, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := Ledger(res)
	if l.Controller != core.WG.String() {
		t.Fatalf("controller name %q, want %q", l.Controller, core.WG.String())
	}
	if l.Counters["array_reads"] != res.ArrayReads {
		t.Fatalf("array_reads %d, want %d", l.Counters["array_reads"], res.ArrayReads)
	}
	if l.Counters["array_writes"] != res.ArrayWrites {
		t.Fatalf("array_writes %d, want %d", l.Counters["array_writes"], res.ArrayWrites)
	}
	if l.Counters["cache_read_hits"] != res.Cache.ReadHits {
		t.Fatalf("cache_read_hits %d, want %d", l.Counters["cache_read_hits"], res.Cache.ReadHits)
	}
	for i, n := range res.Counters.GroupSizes {
		key := "group_size_bucket_" + string(rune('0'+i))
		if l.Counters[key] != n {
			t.Fatalf("%s = %d, want %d", key, l.Counters[key], n)
		}
	}
}

// TestEncodeDeterministicWithControllers pins that a full artifact — ledgers
// included — encodes byte-identically on repeat, which is what lets goldens
// be compared with git diff.
func TestEncodeDeterministicWithControllers(t *testing.T) {
	r := rng.New(3)
	a := testArtifact(r)
	gen, err := workload.Stream("mcf", 1)
	if err != nil {
		t.Fatal(err)
	}
	shape := cache.Config{SizeBytes: 32 * 1024, Ways: 4, BlockBytes: 64}
	res, err := core.RunStreamContext(context.Background(), core.Conventional, shape, core.Options{}, gen, 2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	a.AddController(res)
	first, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("artifact with controller ledger not byte-stable")
	}
}
