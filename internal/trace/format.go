package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format v1.
//
// Header: magic "C8TT", one version byte.
// Records, repeated until EOF, each:
//
//	byte 0: bit0 kind (0=read, 1=write), bits1-3 log2(size), bit4 reserved
//	uvarint: zigzag-encoded delta of Addr from previous record
//	uvarint: Gap
//	uvarint: Data
//
// Address deltas are zigzag-encoded because real request streams move both
// up and down; sequential streams compress to ~3 bytes per record.

var magic = [4]byte{'C', '8', 'T', 'T'}

const formatVersion = 1

// ErrBadMagic reports that a trace file does not start with the format magic.
var ErrBadMagic = errors.New("trace: bad magic (not a cache8t trace)")

// Writer encodes accesses into the binary trace format.
type Writer struct {
	w        *bufio.Writer
	prevAddr uint64
	count    uint64
	buf      [3 * binary.MaxVarintLen64]byte
	started  bool
}

// NewWriter returns a Writer emitting to w. The header is written lazily on
// the first Write (or by Flush).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

func (tw *Writer) start() error {
	if tw.started {
		return nil
	}
	tw.started = true
	if _, err := tw.w.Write(magic[:]); err != nil {
		return err
	}
	return tw.w.WriteByte(formatVersion)
}

func log2Size(size uint8) (uint8, error) {
	switch size {
	case 1:
		return 0, nil
	case 2:
		return 1, nil
	case 4:
		return 2, nil
	case 8:
		return 3, nil
	default:
		return 0, fmt.Errorf("trace: unsupported access size %d", size)
	}
}

func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Write encodes one access.
func (tw *Writer) Write(a Access) error {
	if err := tw.start(); err != nil {
		return err
	}
	l2, err := log2Size(a.Size)
	if err != nil {
		return err
	}
	head := byte(a.Kind&1) | l2<<1
	if err := tw.w.WriteByte(head); err != nil {
		return err
	}
	n := binary.PutUvarint(tw.buf[:], zigzag(int64(a.Addr-tw.prevAddr)))
	n += binary.PutUvarint(tw.buf[n:], uint64(a.Gap))
	n += binary.PutUvarint(tw.buf[n:], a.Data)
	if _, err := tw.w.Write(tw.buf[:n]); err != nil {
		return err
	}
	tw.prevAddr = a.Addr
	tw.count++
	return nil
}

// Count returns the number of accesses written.
func (tw *Writer) Count() uint64 { return tw.count }

// Flush writes the header (if nothing was written yet) and flushes buffers.
func (tw *Writer) Flush() error {
	if err := tw.start(); err != nil {
		return err
	}
	return tw.w.Flush()
}

// Reader decodes accesses from the binary trace format. It implements Stream;
// decode errors are surfaced via Err after Next returns false.
type Reader struct {
	r        *bufio.Reader
	prevAddr uint64
	err      error
	started  bool
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

func (tr *Reader) startRead() error {
	if tr.started {
		return nil
	}
	tr.started = true
	var hdr [5]byte
	if _, err := io.ReadFull(tr.r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			return ErrBadMagic
		}
		return err
	}
	if [4]byte(hdr[:4]) != magic {
		return ErrBadMagic
	}
	if hdr[4] != formatVersion {
		return fmt.Errorf("trace: unsupported format version %d", hdr[4])
	}
	return nil
}

// Next returns the next access. On end of trace or error it reports false;
// check Err to distinguish.
func (tr *Reader) Next() (Access, bool) {
	if tr.err != nil {
		return Access{}, false
	}
	if err := tr.startRead(); err != nil {
		tr.err = err
		return Access{}, false
	}
	head, err := tr.r.ReadByte()
	if err != nil {
		if !errors.Is(err, io.EOF) {
			tr.err = err
		}
		return Access{}, false
	}
	delta, err := binary.ReadUvarint(tr.r)
	if err != nil {
		tr.err = truncated(err)
		return Access{}, false
	}
	gap, err := binary.ReadUvarint(tr.r)
	if err != nil {
		tr.err = truncated(err)
		return Access{}, false
	}
	data, err := binary.ReadUvarint(tr.r)
	if err != nil {
		tr.err = truncated(err)
		return Access{}, false
	}
	tr.prevAddr += uint64(unzigzag(delta))
	return record(head, tr.prevAddr, gap, data), true
}

// record builds the access a decoded record describes.
func record(head byte, addr, gap, data uint64) Access {
	return Access{
		Kind: Kind(head & 1),
		Size: 1 << ((head >> 1) & 3),
		Addr: addr,
		Gap:  uint32(gap),
		Data: data,
	}
}

// ReadBatch decodes up to len(dst) accesses into dst and returns how many it
// produced. It implements BatchSource: a Batcher over a Reader decodes whole
// batches with one call instead of one interface dispatch per access. A
// short or zero count means end of trace or a decode error — check Err.
func (tr *Reader) ReadBatch(dst []Access) int {
	n := 0
	for n < len(dst) {
		if tr.started && tr.err == nil {
			n += tr.decodeBuffered(dst[n:])
			if n == len(dst) {
				break
			}
		}
		a, ok := tr.Next()
		if !ok {
			break
		}
		dst[n] = a
		n++
	}
	return n
}

// maxRecord is the longest well-formed record: the head byte and three
// maximal varints.
const maxRecord = 1 + 3*binary.MaxVarintLen64

// decodeBuffered decodes records straight out of the bufio window, without
// filling it, while at least maxRecord bytes are buffered, so no record it
// starts can run past the window. It stops at the first malformed varint
// and leaves that record, like any record near the window's end, to Next:
// every error then surfaces exactly as Next reports it.
func (tr *Reader) decodeBuffered(dst []Access) int {
	buf, _ := tr.r.Peek(tr.r.Buffered())
	n, pos, addr := 0, 0, tr.prevAddr
	for n < len(dst) && len(buf)-pos >= maxRecord {
		head := buf[pos]
		delta, k1 := binary.Uvarint(buf[pos+1:])
		if k1 <= 0 {
			break
		}
		gap, k2 := binary.Uvarint(buf[pos+1+k1:])
		if k2 <= 0 {
			break
		}
		data, k3 := binary.Uvarint(buf[pos+1+k1+k2:])
		if k3 <= 0 {
			break
		}
		addr += uint64(unzigzag(delta))
		dst[n] = record(head, addr, gap, data)
		n++
		pos += 1 + k1 + k2 + k3
	}
	tr.r.Discard(pos)
	tr.prevAddr = addr
	return n
}

func truncated(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Err returns the first error encountered while decoding, if any. A cleanly
// terminated trace leaves Err nil.
func (tr *Reader) Err() error { return tr.err }

// WriteAll encodes every access from s (up to max; max<=0 means all) and
// flushes. It returns the number written.
func WriteAll(w io.Writer, s Stream, max int) (uint64, error) {
	tw := NewWriter(w)
	n := 0
	for max <= 0 || n < max {
		a, ok := s.Next()
		if !ok {
			break
		}
		if err := tw.Write(a); err != nil {
			return tw.Count(), err
		}
		n++
	}
	return tw.Count(), tw.Flush()
}

// ReadAll decodes an entire trace into memory.
func ReadAll(r io.Reader) ([]Access, error) {
	tr := NewReader(r)
	var out []Access
	for {
		a, ok := tr.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	return out, tr.Err()
}
