// Pooled writers for the encode hot path. The pool is private: a writer
// is reachable only through the two helpers below, so no caller can keep
// a pooled buffer past the point it goes back.
//
//   - EncodeFrame is for bytes that are kept (sent through a dialer,
//     stored, or returned from a handler): it copies the encoding into an
//     exactly-sized slice that nobody else will touch.
//   - Borrow is for bytes that are used on the spot (signed, verified,
//     hashed, or written to a connection): it lends the pooled bytes to a
//     callback and takes the writer back when the callback returns.
package wire

import "sync"

// maxPooledCap bounds the capacity of buffers kept in the pool. A rare
// giant frame (snapshot sync, huge batch) would otherwise pin its buffer
// forever; such writers are dropped and collected normally.
const maxPooledCap = 1 << 20 // 1 MiB

var writerPool = sync.Pool{
	New: func() any { return &Writer{buf: make([]byte, 0, 512)} },
}

// Borrow encodes through a pooled writer, lends the encoded bytes to use,
// and returns the writer to the pool once use returns. Like the p of
// io.Writer.Write, the slice use receives must not be retained: the next
// borrower overwrites it.
func Borrow(enc func(*Writer), use func([]byte)) {
	w := writerPool.Get().(*Writer)
	w.Reset()
	enc(w)
	use(w.buf)
	if cap(w.buf) <= maxPooledCap {
		writerPool.Put(w)
	}
}

// EncodeFrame encodes one frame through a pooled writer and returns an
// exactly-sized copy: the standard way to produce a frame that will be
// retained. Only the result slice is allocated.
func EncodeFrame(enc func(*Writer)) []byte {
	var out []byte
	Borrow(enc, func(b []byte) {
		out = make([]byte, len(b))
		copy(out, b)
	})
	return out
}
