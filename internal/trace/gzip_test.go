package trace

import (
	"bytes"
	"testing"
)

func sampleAccesses(n int) []Access {
	out := make([]Access, n)
	for i := range out {
		out[i] = Access{
			Kind: Kind(i & 1), Size: 8, Addr: 0x1000 + uint64(i*8),
			Gap: uint32(i % 7), Data: uint64(i * 3),
		}
	}
	return out
}

func TestGzipRoundTrip(t *testing.T) {
	in := sampleAccesses(2000)
	var buf bytes.Buffer
	n, err := WriteAllAuto(&buf, FromSlice(in), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2000 {
		t.Fatalf("wrote %d", n)
	}
	out, err := ReadAllAuto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d", len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("access %d mismatch", i)
		}
	}
}

func TestAutoReaderHandlesPlainTraces(t *testing.T) {
	in := sampleAccesses(100)
	var buf bytes.Buffer
	if _, err := WriteAllAuto(&buf, FromSlice(in), 0, false); err != nil {
		t.Fatal(err)
	}
	out, err := ReadAllAuto(&buf)
	if err != nil || len(out) != 100 {
		t.Fatalf("plain auto-read: %d, %v", len(out), err)
	}
}

func TestGzipActuallyCompresses(t *testing.T) {
	in := sampleAccesses(10000)
	var plain, packed bytes.Buffer
	if _, err := WriteAllAuto(&plain, FromSlice(in), 0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteAllAuto(&packed, FromSlice(in), 0, true); err != nil {
		t.Fatal(err)
	}
	if packed.Len() >= plain.Len() {
		t.Errorf("gzip did not shrink the trace: %d vs %d", packed.Len(), plain.Len())
	}
}

func TestIsGzipPath(t *testing.T) {
	if !IsGzipPath("a.c8tt.gz") || !IsGzipPath("b.gzip") {
		t.Error("gz suffixes not detected")
	}
	if IsGzipPath("a.c8tt") {
		t.Error("plain suffix detected as gzip")
	}
}

func TestAutoReaderRejectsGarbage(t *testing.T) {
	if _, err := ReadAllAuto(bytes.NewReader([]byte{0x1f, 0x8b, 0xff, 0xff})); err == nil {
		t.Error("corrupt gzip accepted")
	}
	if _, err := ReadAllAuto(bytes.NewReader([]byte("XY"))); err == nil {
		t.Error("garbage accepted as trace")
	}
}

func TestAutoReaderEmptyInput(t *testing.T) {
	if _, err := ReadAllAuto(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail header validation")
	}
}

func TestNewAnyReaderSniffsAllFramings(t *testing.T) {
	in := sampleAccesses(50)
	// Text framing zeroes read data (documented lossy field); align the
	// fixture so all three framings decode identically.
	for i := range in {
		if in[i].Kind == Read {
			in[i].Data = 0
		}
	}

	var binBuf, gzBuf, txtBuf bytes.Buffer
	if _, err := WriteAll(&binBuf, FromSlice(in), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteAllAuto(&gzBuf, FromSlice(in), 0, true); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&txtBuf, in); err != nil {
		t.Fatal(err)
	}

	for name, data := range map[string][]byte{
		"binary": binBuf.Bytes(),
		"gzip":   gzBuf.Bytes(),
		"text":   txtBuf.Bytes(),
	} {
		r, err := NewAnyReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := Collect(r, 0)
		if r.Err() != nil {
			t.Fatalf("%s: %v", name, r.Err())
		}
		if len(got) != len(in) {
			t.Fatalf("%s: got %d accesses, want %d", name, len(got), len(in))
		}
		for i := range in {
			if got[i] != in[i] {
				t.Fatalf("%s: access %d = %v, want %v", name, i, got[i], in[i])
			}
		}
	}
}
