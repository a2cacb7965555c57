package trace

// Batched streaming: the hot simulation path pulls accesses in fixed-size
// batches instead of one interface call per access. Batches come from a
// fixed pool of reusable buffers (Broadcast, RouteBroadcast), so draining a
// trace of any length costs a constant amount of memory and no per-access
// allocation; sources that can decode natively into a slice (the binary
// Reader) skip the per-access Stream.Next dispatch entirely.

// DefaultBatchSize is the batch length used when callers pass size <= 0.
// 4096 accesses (96 KiB of batch buffer) amortizes interface dispatch and
// context polls without hurting cache locality.
const DefaultBatchSize = 4096

// BatchSource is implemented by streams that can fill a caller-provided
// slice natively, without a Stream.Next call per access. ReadBatch returns
// how many accesses it decoded into dst; a short (possibly zero) count means
// the source is exhausted or failed — check Err via ErrStream.
type BatchSource interface {
	ReadBatch(dst []Access) int
}

// ErrStream is a Stream whose source can fail mid-decode (file corruption,
// truncation). A cleanly exhausted stream leaves Err nil.
type ErrStream interface {
	Stream
	Err() error
}

// decoder is the decode core shared by the broadcast fan-outs:
// one batch of the source at a time, through the fastest path the source
// supports — a zero-copy subslice view for in-memory slices, a native
// ReadBatch for binary readers, a per-access Next loop for everything else.
type decoder struct {
	src   Stream
	fast  BatchSource  // non-nil when src decodes batches natively
	slice *SliceStream // non-nil when src is an in-memory slice: zero-copy
	size  int
	buf   []Access // next's buffer, allocated lazily; slice sources never need it
}

// newDecoder classifies src and fixes the batch length (size <= 0 means
// DefaultBatchSize).
func newDecoder(src Stream, size int) decoder {
	if size <= 0 {
		size = DefaultBatchSize
	}
	d := decoder{src: src, size: size}
	switch s := src.(type) {
	case *SliceStream:
		d.slice = s
	case BatchSource:
		d.fast = s
	}
	return d
}

// fill loads the next batch of the source: a subslice of the backing array
// for slice sources, otherwise accesses decoded into *buf, which is
// allocated (size accesses) on first use. An empty batch means the source
// is exhausted or errored (check err). Every batch producer in the package
// — Broadcast and RouteBroadcast — goes through here, each with its own
// destination buffer.
func (d *decoder) fill(buf *[]Access) []Access {
	if d.slice != nil {
		return d.slice.nextBatch(d.size)
	}
	if *buf == nil {
		*buf = make([]Access, d.size)
	}
	dst := *buf
	var n int
	if d.fast != nil {
		n = d.fast.ReadBatch(dst)
	} else {
		for n < len(dst) {
			a, ok := d.src.Next()
			if !ok {
				break
			}
			dst[n] = a
			n++
		}
	}
	return dst[:n]
}

// next is fill into the decoder's own buffer. The returned slice is valid
// only until the next call.
func (d *decoder) next() []Access { return d.fill(&d.buf) }

// err surfaces the source's decode error, when the source tracks one.
func (d *decoder) err() error {
	if es, ok := d.src.(ErrStream); ok {
		return es.Err()
	}
	return nil
}
