package wire

import (
	"bytes"
	"testing"
	"time"
)

// FuzzReaderFrame drives the Reader's whole decode surface over
// arbitrary bytes. The invariants under fuzz: no panic on any input,
// the error latch is sticky (after the first failure every further
// read returns a zero value and the same latched error), and the
// zero-copy views equal the copying accessors on whatever prefix
// decodes cleanly.
func FuzzReaderFrame(f *testing.F) {
	// A well-formed frame touching every field kind.
	w := NewWriter(64)
	w.Uvarint(42)
	w.Varint(-7)
	w.String_("catalog/00042")
	w.Bytes_([]byte("payload"))
	w.Time(time.Unix(1000, 0).UTC())
	w.Bool(true)
	w.Uint32(7)
	w.Uint64(9)
	w.Float64(1.5)
	w.Duration(time.Second)
	w.BytesSlice([][]byte{[]byte("a"), []byte("bc")})
	w.StringSlice([]string{"x", "y"})
	f.Add(w.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // huge uvarint
	f.Add([]byte{0x05, 'a', 'b'})                                             // truncated bytes field
	f.Add(bytes.Repeat([]byte{0x80}, 16))                                     // non-terminating varint

	f.Fuzz(func(t *testing.T, data []byte) {
		// Two readers over the same input: one via copying accessors, one
		// via views. They must agree field-for-field and latch identically.
		a := NewReader(data)
		b := NewReader(append([]byte(nil), data...))

		a.Uvarint()
		b.Uvarint()
		ab := a.Bytes()
		bb := b.BytesView()
		if (a.Err() == nil) != (b.Err() == nil) {
			t.Fatalf("error latch diverged: %v vs %v", a.Err(), b.Err())
		}
		if a.Err() == nil && !bytes.Equal(ab, bb) {
			t.Fatalf("Bytes %q != BytesView %q", ab, bb)
		}
		as := a.BytesSlice()
		bs := b.BytesSliceView()
		if (a.Err() == nil) != (b.Err() == nil) {
			t.Fatalf("slice error latch diverged: %v vs %v", a.Err(), b.Err())
		}
		if a.Err() == nil {
			if len(as) != len(bs) {
				t.Fatalf("BytesSlice len %d != view len %d", len(as), len(bs))
			}
			for i := range as {
				if !bytes.Equal(as[i], bs[i]) {
					t.Fatalf("slice elem %d: %q != %q", i, as[i], bs[i])
				}
			}
		}
		a.Time()
		a.Bool()
		if a.Err() != nil {
			// Sticky latch: every further read is a zero value, same error.
			err := a.Err()
			if v := a.Uvarint(); v != 0 {
				t.Fatalf("read after error returned %d, want 0", v)
			}
			if bv := a.BytesView(); bv != nil {
				t.Fatalf("view after error returned %q, want nil", bv)
			}
			if a.Err() != err {
				t.Fatalf("latched error changed: %v -> %v", err, a.Err())
			}
		}
	})
}
