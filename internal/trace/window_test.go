package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// readerWindow is the bufio window NewReader decodes from. Over a
// bytes.Reader every refill reads a full window, so window edges fall at
// multiples of it in the encoded trace.
const readerWindow = 1 << 16

// appendRecord hand-encodes one record: a write of 8 bytes with the given
// address delta, gap and data.
func appendRecord(b []byte, delta int64, gap uint32, data uint64) []byte {
	b = append(b, 1|3<<1)
	b = binary.AppendUvarint(b, zigzag(delta))
	b = binary.AppendUvarint(b, uint64(gap))
	return binary.AppendUvarint(b, data)
}

// padTo appends records until b is exactly n bytes long. Filler records
// are 4 bytes; the last is 4 to 7 bytes, sized by its data varint, so any
// n at least 4 bytes past len(b) is reachable.
func padTo(b []byte, n int) []byte {
	for n-len(b) >= 8 {
		b = appendRecord(b, 8, 0, 0)
	}
	data := [...]uint64{0, 1 << 7, 1 << 14, 1 << 21}[n-len(b)-4]
	return appendRecord(b, 8, 0, data)
}

// windowTrace encodes random accesses until the trace is at least n bytes
// long; the spread of deltas and data gives records from 4 to 31 bytes, so
// record boundaries land everywhere relative to the window edges.
func windowTrace(n int) []byte {
	r := rand.New(rand.NewSource(5))
	b := append(magic[:], formatVersion)
	for len(b) < n {
		delta := int64(r.Uint64() >> uint(r.Intn(40)))
		if r.Intn(2) == 0 {
			delta = -delta
		}
		b = appendRecord(b, delta, uint32(r.Uint64()>>uint(32+r.Intn(33))), r.Uint64()>>uint(r.Intn(64)))
	}
	return b
}

// nextLoopErr decodes data with a plain Next loop and returns its error
// text.
func nextLoopErr(data []byte) string {
	tr := NewReader(bytes.NewReader(data))
	for {
		if _, ok := tr.Next(); !ok {
			return fmt.Sprint(tr.Err())
		}
	}
}

// requireSameDecode drains data through a Batcher over a Reader, the
// ReadBatch path, in lockstep with a plain Next loop over the same bytes,
// and requires the same accesses, count and error text.
func requireSameDecode(t *testing.T, label string, data []byte, sizes ...int) {
	t.Helper()
	for _, size := range sizes {
		ref := NewReader(bytes.NewReader(data))
		b := NewBatcher(NewReader(bytes.NewReader(data)), size)
		var n uint64
		for {
			batch, ok := b.Next()
			if !ok {
				break
			}
			for _, got := range batch {
				want, ok := ref.Next()
				if !ok {
					t.Fatalf("%s batch %d: access %d past the Next loop's end", label, size, n)
				}
				if got != want {
					t.Fatalf("%s batch %d: access %d = %+v, Next loop %+v", label, size, n, got, want)
				}
				n++
			}
		}
		if _, ok := ref.Next(); ok {
			t.Fatalf("%s batch %d: ended after %d accesses, Next loop goes on", label, size, n)
		}
		if b.Count() != n {
			t.Fatalf("%s batch %d: Count %d after %d accesses", label, size, b.Count(), n)
		}
		if got, want := fmt.Sprint(b.Err()), fmt.Sprint(ref.Err()); got != want {
			t.Fatalf("%s batch %d: Err %q, Next loop %q", label, size, got, want)
		}
	}
}

// TestReadBatchMatchesNextAcrossWindowEdges truncates a multi-window trace
// at every offset within 40 bytes of each window edge and requires the
// batched decode to agree with a plain Next loop on the accesses, the count
// and the error text.
func TestReadBatchMatchesNextAcrossWindowEdges(t *testing.T) {
	data := windowTrace(3*readerWindow + 4096)
	requireSameDecode(t, "whole", data, 97, DefaultBatchSize)
	for edge := readerWindow; edge < len(data); edge += readerWindow {
		for d := -40; d <= 40; d++ {
			// Alternate the batch size: a short batch meets the edge at
			// many batch offsets, the default one as the pipeline does.
			size := 97
			if d%2 != 0 {
				size = DefaultBatchSize
			}
			requireSameDecode(t, fmt.Sprintf("cut at %d%+d", edge, d), data[:edge+d], size)
		}
	}
}

// TestReadBatchOverflowAcrossWindowEdge places an overflowing varint in
// each of a record's three varint slots, starting at every offset from 12
// bytes before the first window edge to 2 bytes after it (so it straddles
// the edge or sits on either side of it), and at offsets well inside the
// windows on either side, where the buffered decode meets it first.
func TestReadBatchOverflowAcrossWindowEdge(t *testing.T) {
	prefix := windowTrace(readerWindow - 200)
	overflows := [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},       // 10th byte > 1
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, // 11 bytes
	}
	const edge = readerWindow
	starts := []int{edge - 100, edge + 100}
	for start := edge - 12; start <= edge+2; start++ {
		starts = append(starts, start)
	}
	for vi, bad := range overflows {
		for slot := 0; slot < 3; slot++ {
			for _, start := range starts {
				// The head byte and the one-byte varints before the bad
				// slot precede it.
				b := padTo(prefix[:len(prefix):len(prefix)], start-1-slot)
				b = append(b, 1|3<<1)
				b = append(b, make([]byte, slot)...)
				b = append(b, bad...)
				b = append(b, make([]byte, 2-slot)...)
				for len(b) < edge+1024 {
					b = appendRecord(b, 8, 1, 1)
				}
				label := fmt.Sprintf("overflow %d in slot %d at %d", vi, slot, start)
				size := 97
				if start%2 != 0 {
					size = DefaultBatchSize
				}
				requireSameDecode(t, label, b, size)
				if err := nextLoopErr(b); err != "binary: varint overflows a 64-bit integer" {
					t.Fatalf("%s: Next loop Err %q", label, err)
				}
			}
		}
	}
}

// TestReadBatchSteadyStateAllocs guards the decode hot path: once the
// reader is running, ReadBatch allocates nothing.
func TestReadBatchSteadyStateAllocs(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, FromSlice(sampleAccesses(1<<16)), 0); err != nil {
		t.Fatal(err)
	}
	tr := NewReader(bytes.NewReader(buf.Bytes()))
	dst := make([]Access, 256)
	if tr.ReadBatch(dst) != len(dst) {
		t.Fatal("short first batch")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if tr.ReadBatch(dst) != len(dst) {
			t.Fatal("short batch")
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadBatch allocates %v times per batch, want 0", allocs)
	}
}
