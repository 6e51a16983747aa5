package wire

import (
	"testing"
	"time"
)

func TestUvarintOverflowRejected(t *testing.T) {
	// 10 continuation bytes followed by a large terminator overflows 64
	// bits; binary.Uvarint reports it with n < 0.
	buf := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	r := NewReader(buf)
	r.Uvarint()
	if r.Err() != ErrOverflow {
		t.Fatalf("err = %v, want ErrOverflow", r.Err())
	}
}

func TestVarintOverflowRejected(t *testing.T) {
	buf := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	r := NewReader(buf)
	r.Varint()
	if r.Err() != ErrOverflow {
		t.Fatalf("err = %v, want ErrOverflow", r.Err())
	}
}

func TestRemainingTracksOffset(t *testing.T) {
	w := NewWriter(0)
	w.Uint32(1)
	w.Uint32(2)
	r := NewReader(w.Bytes())
	if r.Remaining() != 8 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
	r.Uint32()
	if r.Remaining() != 4 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
}

func TestStringSliceLengthGuard(t *testing.T) {
	// A slice claiming more elements than bytes remain must fail fast
	// rather than allocate.
	w := NewWriter(0)
	w.Uvarint(1 << 40)
	r := NewReader(w.Bytes())
	if ss := r.StringSlice(); ss != nil || r.Err() == nil {
		t.Fatalf("oversized slice accepted: %v / %v", ss, r.Err())
	}
}

func TestStringOversizedPrefix(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(MaxBytesLen + 1)
	r := NewReader(w.Bytes())
	if s := r.String(); s != "" || r.Err() != ErrTooLarge {
		t.Fatalf("oversized string: %q / %v", s, r.Err())
	}
}

func TestErrorsAfterFailureReturnZero(t *testing.T) {
	r := NewReader([]byte{0x01}) // a valid byte, then empty
	r.Byte()
	r.Byte() // fails
	if r.Err() == nil {
		t.Fatal("expected failure")
	}
	if r.Uvarint() != 0 || r.Varint() != 0 || r.Uint32() != 0 || r.Uint64() != 0 {
		t.Fatal("post-error reads not zero")
	}
	if r.Bool() || r.Float64() != 0 || r.Bytes() != nil || r.String() != "" {
		t.Fatal("post-error reads not zero")
	}
	if !r.Time().IsZero() || r.Duration() != 0 || r.StringSlice() != nil {
		t.Fatal("post-error reads not zero")
	}
}

func TestNegativeDurationRoundTrip(t *testing.T) {
	w := NewWriter(0)
	w.Duration(-time.Hour)
	r := NewReader(w.Bytes())
	if got := r.Duration(); got != -time.Hour {
		t.Fatalf("duration = %v", got)
	}
}

func TestWriterLen(t *testing.T) {
	w := NewWriter(4)
	if w.Len() != 0 {
		t.Fatal("fresh writer not empty")
	}
	w.String_("ab")
	if w.Len() != 3 { // 1 length byte + 2 payload
		t.Fatalf("len = %d", w.Len())
	}
}

func TestCountBoundedByRemaining(t *testing.T) {
	// Three elements can follow a count of three; a count of four cannot
	// be honest, whatever the elements are.
	r := NewReader([]byte{3, 'a', 'b', 'c'})
	if n := r.Count(); n != 3 || r.Err() != nil {
		t.Fatalf("Count = %d, %v; want 3", n, r.Err())
	}
	r = NewReader([]byte{4, 'a', 'b', 'c'})
	if n := r.Count(); n != 0 || r.Err() != ErrShortBuffer {
		t.Fatalf("Count = %d, %v; want 0, ErrShortBuffer", n, r.Err())
	}
	w := NewWriter(0)
	w.Uvarint(1 << 62)
	r = NewReader(w.Bytes())
	if n := r.Count(); n != 0 || r.Err() != ErrShortBuffer {
		t.Fatalf("Count = %d, %v; want 0, ErrShortBuffer", n, r.Err())
	}
}
