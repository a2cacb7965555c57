package trace

import (
	"bytes"
	"testing"
)

// FuzzReader feeds arbitrary bytes to the trace decoder: it must never
// panic, and whatever decodes must re-encode to something that decodes to
// the same accesses (decode/encode/decode fixpoint).
func FuzzReader(f *testing.F) {
	var seed bytes.Buffer
	if _, err := WriteAll(&seed, FromSlice(sampleAccesses(16)), 0); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("C8TT\x01"))
	f.Add([]byte("C8TT\x01\x00\x00\x00\x00"))
	f.Add([]byte{0x1f, 0x8b})
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return // malformed input is fine; panics are not
		}
		var buf bytes.Buffer
		if _, err := WriteAll(&buf, FromSlice(first), 0); err != nil {
			// Decoded accesses always carry valid sizes; re-encode cannot
			// fail.
			t.Fatalf("re-encode failed: %v", err)
		}
		second, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(first) != len(second) {
			t.Fatalf("fixpoint length %d != %d", len(first), len(second))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("fixpoint mismatch at %d", i)
			}
		}
	})
}

// FuzzBroadcast feeds arbitrary bytes through the batched decode path every
// run loop takes, a one-subscriber Broadcast over a Reader: it must never
// panic, every batch must be 1 to size accesses long, and for every batch
// size it must agree access-for-access (and error-for-error) with the
// one-shot ReadAll over the same bytes — the differential guarantee the
// streaming pipeline rests on.
func FuzzBroadcast(f *testing.F) {
	var seed bytes.Buffer
	if _, err := WriteAll(&seed, FromSlice(sampleAccesses(16)), 0); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes(), uint8(4))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("C8TT\x01"), uint8(1))
	f.Add([]byte("C8TT\x01\x00\x00\x00\x00"), uint8(255))
	f.Add(seed.Bytes()[:seed.Len()-2], uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, sizeByte uint8) {
		oneShot, oneErr := ReadAll(bytes.NewReader(data))

		size := int(sizeByte%64) + 1
		streamed, batchErr := drainSized(t, NewReader(bytes.NewReader(data)), size)

		if (oneErr == nil) != (batchErr == nil) {
			t.Fatalf("error divergence: one-shot %v vs batched %v", oneErr, batchErr)
		}
		if oneErr != nil && oneErr.Error() != batchErr.Error() {
			t.Fatalf("error mismatch: one-shot %q vs batched %q", oneErr, batchErr)
		}
		if len(streamed) != len(oneShot) {
			t.Fatalf("decoded %d accesses batched vs %d one-shot", len(streamed), len(oneShot))
		}
		for i := range oneShot {
			if streamed[i] != oneShot[i] {
				t.Fatalf("access %d: batched %v vs one-shot %v", i, streamed[i], oneShot[i])
			}
		}
	})
}
