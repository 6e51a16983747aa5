// Writer and Reader for the deterministic binary format. See doc.go for
// the package overview and the format table.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Encoding errors.
var (
	ErrShortBuffer = errors.New("wire: short buffer")
	ErrOverflow    = errors.New("wire: varint overflows 64 bits")
	ErrTooLarge    = errors.New("wire: length prefix exceeds limit")
)

// MaxBytesLen caps the length of any single byte-slice or string field to
// guard against corrupt or hostile length prefixes.
const MaxBytesLen = 64 << 20 // 64 MiB

// MaxBatchItems caps the element count of a batch frame (BytesSlice);
// batched commits never approach it, so a larger prefix marks a corrupt
// or hostile frame.
const MaxBatchItems = 1 << 16

// Writer accumulates an encoded message. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded bytes. The slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset truncates the writer for reuse.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Varint appends a zig-zag signed varint.
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Uint32 appends a fixed-width big-endian uint32.
func (w *Writer) Uint32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// Uint64 appends a fixed-width big-endian uint64.
func (w *Writer) Uint64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// Byte appends a single byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Float64 appends an IEEE-754 double in big-endian order.
func (w *Writer) Float64(f float64) {
	w.Uint64(math.Float64bits(f))
}

// Bytes_ appends a length-prefixed byte slice. (Named with a trailing
// underscore to avoid colliding with the Bytes accessor.)
func (w *Writer) Bytes_(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String_ appends a length-prefixed string.
func (w *Writer) String_(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Time appends a timestamp as varint Unix nanoseconds.
func (w *Writer) Time(t time.Time) {
	if t.IsZero() {
		w.Varint(math.MinInt64)
		return
	}
	w.Varint(t.UnixNano())
}

// Duration appends a duration as varint nanoseconds.
func (w *Writer) Duration(d time.Duration) { w.Varint(int64(d)) }

// StringSlice appends a count-prefixed slice of strings.
func (w *Writer) StringSlice(ss []string) {
	w.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.String_(s)
	}
}

// BytesSlice appends a batch frame: a count-prefixed sequence of
// length-prefixed byte slices. It is the on-wire shape of a batched
// commit — one frame carrying every member of the batch.
func (w *Writer) BytesSlice(bs [][]byte) {
	w.Uvarint(uint64(len(bs)))
	for _, b := range bs {
		w.Bytes_(b)
	}
}

// Reader decodes a message produced by Writer. Methods record the first
// error; once an error occurs all subsequent reads return zero values, so
// decode sequences can check Err once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf. The reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done returns nil if the reader consumed the whole buffer without error,
// and a descriptive error otherwise.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrShortBuffer)
		} else {
			r.fail(ErrOverflow)
		}
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zig-zag signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrShortBuffer)
		} else {
			r.fail(ErrOverflow)
		}
		return 0
	}
	r.off += n
	return v
}

// Uint32 reads a fixed-width big-endian uint32.
func (r *Reader) Uint32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 4 {
		r.fail(ErrShortBuffer)
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// Uint64 reads a fixed-width big-endian uint64.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail(ErrShortBuffer)
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Byte reads a single byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 1 {
		r.fail(ErrShortBuffer)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Bool reads a boolean encoded as one byte.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Float64 reads an IEEE-754 double.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Bytes reads a length-prefixed byte slice. The result is a copy.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxBytesLen {
		r.fail(ErrTooLarge)
		return nil
	}
	if uint64(r.Remaining()) < n {
		r.fail(ErrShortBuffer)
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:])
	r.off += int(n)
	return out
}

// BytesView reads a length-prefixed byte slice without copying. The
// result aliases the reader's buffer: it is valid for as long as that
// buffer is, and callers must not mutate it or retain it past the
// buffer's lifetime. Use Bytes when the caller keeps the slice.
func (r *Reader) BytesView() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxBytesLen {
		r.fail(ErrTooLarge)
		return nil
	}
	if uint64(r.Remaining()) < n {
		r.fail(ErrShortBuffer)
		return nil
	}
	out := r.buf[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > MaxBytesLen {
		r.fail(ErrTooLarge)
		return ""
	}
	if uint64(r.Remaining()) < n {
		r.fail(ErrShortBuffer)
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Time reads a timestamp written by Writer.Time.
func (r *Reader) Time() time.Time {
	v := r.Varint()
	if r.err != nil || v == math.MinInt64 {
		return time.Time{}
	}
	return time.Unix(0, v).UTC()
}

// Duration reads a duration written by Writer.Duration.
func (r *Reader) Duration() time.Duration { return time.Duration(r.Varint()) }

// Count reads the element count that prefixes a repeated field. Every
// element occupies at least one byte, so a count above the bytes left
// fails the reader (ErrShortBuffer) before a caller sizes a slice by it:
// a hostile prefix cannot make a decoder allocate more than the frame
// that carried it.
func (r *Reader) Count() int { return r.count(math.MaxUint64) }

// count is Count with a ceiling; a count above it fails the reader with
// ErrTooLarge.
func (r *Reader) count(ceiling uint64) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > ceiling {
		r.fail(ErrTooLarge)
		return 0
	}
	if n > uint64(r.Remaining()) {
		r.fail(ErrShortBuffer)
		return 0
	}
	return int(n)
}

// BytesSlice reads a batch frame written by Writer.BytesSlice. Each
// element is an independent copy. A count above MaxBatchItems, or one
// that cannot fit in the remaining bytes, fails the reader without
// allocating.
func (r *Reader) BytesSlice() [][]byte {
	n := r.count(MaxBatchItems)
	if r.err != nil {
		return nil
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		b := r.Bytes()
		if r.err != nil {
			return nil
		}
		out = append(out, b)
	}
	return out
}

// BytesSliceView reads a batch frame like BytesSlice, but every element
// aliases the reader's buffer instead of being copied. The slice header
// itself is still allocated; only the element payloads are zero-copy.
// Callers that retain elements past the buffer's lifetime must copy them.
func (r *Reader) BytesSliceView() [][]byte {
	n := r.count(MaxBatchItems)
	if r.err != nil {
		return nil
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		b := r.BytesView()
		if r.err != nil {
			return nil
		}
		out = append(out, b)
	}
	return out
}

// StringSlice reads a count-prefixed slice of strings.
func (r *Reader) StringSlice() []string {
	n := r.Count()
	if r.err != nil {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.String())
	}
	return out
}
